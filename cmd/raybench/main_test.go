package main

import (
	"context"
	"slices"
	"testing"

	"rayfade/internal/benchio"
)

// TestGoldenDeterministic recomputes the full manifest twice in one
// process: every experiment must hash identically, or the golden gate
// would flap. This also exercises the worker-independence contract, since
// the golden configs run at default (GOMAXPROCS) parallelism.
func TestGoldenDeterministic(t *testing.T) {
	a, err := computeGolden(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := computeGolden(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if diff := benchio.DiffGolden(a, b); !diff.Clean() {
		t.Fatalf("back-to-back golden runs diverge: %+v", diff)
	}
	if len(a.Entries) != len(goldenExperiments()) {
		t.Fatalf("manifest has %d entries, want %d", len(a.Entries), len(goldenExperiments()))
	}
}

// TestGoldenCoversEverySimExperiment pins the manifest contents: dropping
// an experiment from the golden suite should be a deliberate, visible act.
func TestGoldenCoversEverySimExperiment(t *testing.T) {
	want := map[string]bool{
		"figure1": true, "figure2": true, "optimum": true, "reduction": true,
		"baseline": true, "fadingsweep": true, "latencyexp": true, "shannon": true,
	}
	exps := goldenExperiments()
	if len(exps) != len(want) {
		t.Fatalf("golden suite has %d experiments, want %d", len(exps), len(want))
	}
	for _, exp := range exps {
		if !want[exp.name] {
			t.Errorf("unexpected golden experiment %q", exp.name)
		}
		if exp.note == "" {
			t.Errorf("golden experiment %q has no config note", exp.name)
		}
	}
}

// TestGoldenHonorsCancellation: a cancelled context must abort the run with
// an error, not hash a partial output.
func TestGoldenHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := computeGolden(ctx); err == nil {
		t.Fatal("computeGolden succeeded under a cancelled context")
	}
}

// TestScenarioNamesUniqueAndQuickSubset guards the registry invariants the
// compare gate depends on: names key baselines, and -quick must keep a
// non-trivial suite.
func TestScenarioNamesUniqueAndQuickSubset(t *testing.T) {
	suite := scenarios()
	seen := map[string]bool{}
	quick := 0
	for _, sc := range suite {
		if seen[sc.name] {
			t.Errorf("duplicate scenario name %q", sc.name)
		}
		seen[sc.name] = true
		if sc.quick {
			quick++
		}
	}
	if quick < 8 {
		t.Fatalf("quick subset has %d scenarios, want ≥ 8", quick)
	}
}

// TestMatchesFilter pins -filter's list form: a name runs when it contains
// any one of the comma-separated substrings.
func TestMatchesFilter(t *testing.T) {
	const filter = "rng/,fading/count-,server/estimate-ref-compute"
	for _, tc := range []struct {
		name, filter string
		want         bool
	}{
		{"rng/fill-open-100", "", true},
		{"rng/fill-open-100", filter, true},
		{"fading/count-dense-100", filter, true},
		{"server/estimate-ref-compute", filter, true},
		{"fading/sample-dense-200", filter, false},
		{"server/estimate-compute", filter, false},
		{"sinr/values-dense-200", "sinr/", true},
		{"sinr/values-dense-200", ",", false},
	} {
		if got := matchesFilter(tc.name, tc.filter); got != tc.want {
			t.Errorf("matchesFilter(%q, %q) = %v, want %v", tc.name, tc.filter, got, tc.want)
		}
	}
	var matched []string
	for _, sc := range scenarios() {
		if matchesFilter(sc.name, filter) {
			matched = append(matched, sc.name)
		}
	}
	want := []string{"rng/fill-open-100", "fading/count-dense-100", "fading/count-half-100", "fading/count-set-100", "server/estimate-ref-compute"}
	if !slices.Equal(matched, want) {
		t.Fatalf("%q runs %v, want %v", filter, matched, want)
	}
}

// TestScenarioSetupsRunOnce executes every scenario's op a single time —
// setup errors, panicking ops, or leaking cleanups fail here instead of
// mid-measurement in CI.
func TestScenarioSetupsRunOnce(t *testing.T) {
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			op, cleanup, err := sc.setup()
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			defer cleanup()
			op()
		})
	}
}
