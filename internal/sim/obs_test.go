package sim

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"reflect"
	"strings"
	"testing"

	"rayfade/internal/obs"
	"rayfade/internal/rng"
)

// smallFigure1 is a fast fixed-seed workload for instrumentation tests.
func smallFigure1() Figure1Config {
	return Figure1Config{
		Networks:      3,
		Links:         12,
		TransmitSeeds: 2,
		FadingSeeds:   2,
		Probs:         []float64{0.2, 0.6},
		Seed:          11,
		Workers:       2,
	}
}

// TestTracingDoesNotPerturbResults is the determinism contract of the
// observability layer: a fixed-seed experiment must produce identical
// results with tracing and logging fully enabled, because obs never draws
// from the experiment RNG streams.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	plain, err := RunFigure1Ctx(context.Background(), smallFigure1())
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer(0)
	var logBuf bytes.Buffer
	SetLogger(obs.NewLogger(&logBuf, slog.LevelDebug, false))
	defer SetLogger(nil)
	ctx := obs.WithTracer(context.Background(), tr)
	traced, err := RunFigure1Ctx(ctx, smallFigure1())
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range plain.CurveNames() {
		if !reflect.DeepEqual(plain.Curves[name], traced.Curves[name]) {
			t.Fatalf("curve %q differs with tracing enabled", name)
		}
	}
	if tr.Recorded() == 0 {
		t.Fatal("tracer recorded no spans")
	}
	if !bytes.Contains(logBuf.Bytes(), []byte("experiment start")) ||
		!bytes.Contains(logBuf.Bytes(), []byte("experiment done")) {
		t.Fatalf("lifecycle log records missing:\n%s", logBuf.String())
	}
}

// TestExperimentSpanHierarchy checks the span shape one -trace run emits:
// a root experiment span, phase spans nested under it, and one detached
// replication span per network.
func TestExperimentSpanHierarchy(t *testing.T) {
	tr := obs.NewTracer(0)
	ctx := obs.WithTracer(context.Background(), tr)
	cfg := smallFigure1()
	if _, err := RunFigure1Ctx(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	byName := map[string][]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	roots := byName["sim.figure1"]
	if len(roots) != 1 {
		t.Fatalf("want 1 root span, got %d (%v)", len(roots), byName)
	}
	root := roots[0]
	if root.Parent != 0 {
		t.Fatalf("experiment span has parent %d", root.Parent)
	}
	fans := byName["parallel.fanout"]
	if len(fans) != 1 || fans[0].Parent != root.ID {
		t.Fatalf("fanout span not nested under experiment root: %+v", fans)
	}
	if len(byName["merge"]) != 1 || byName["merge"][0].Parent != root.ID {
		t.Fatalf("merge phase not nested under experiment root: %+v", byName["merge"])
	}
	reps := byName["replication"]
	if len(reps) != cfg.Networks {
		t.Fatalf("want %d replication spans, got %d", cfg.Networks, len(reps))
	}
	for _, r := range reps {
		if r.Parent != fans[0].ID {
			t.Fatalf("replication span parent = %d, want fanout %d", r.Parent, fans[0].ID)
		}
		if r.Root != r.ID {
			t.Fatalf("replication span must be detached (own track), got root %d", r.Root)
		}
	}

	// The exported trace must validate and show nesting.
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := obs.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if !stats.Nested {
		t.Fatal("trace shows no nested phase spans")
	}
	if stats.Tracks < 2 {
		t.Fatalf("want ≥2 tracks (root + replications), got %d", stats.Tracks)
	}
}

// TestDefaultTracerCoversNonCtxEntrypoints: a run under
// context.Background() carries no tracer in ctx and must still pick up the
// process-default tracer. raybench's -trace-dir and golden -trace, and the
// benchmark suite, trace this way.
func TestDefaultTracerCoversNonCtxEntrypoints(t *testing.T) {
	tr := obs.NewTracer(0)
	obs.SetDefault(tr)
	defer obs.SetDefault(nil)
	if _, err := RunFigure1Ctx(context.Background(), smallFigure1()); err != nil {
		t.Fatal(err)
	}
	if tr.Recorded() == 0 {
		t.Fatal("default tracer saw no spans from a context.Background() run")
	}
}

// TestAlgorithmSpansNestUnderReplications: with the tracer carried only in
// ctx (no process default), every capacity, latency and transform span an
// experiment records must link, through its parents, to a replication span.
// A span from an algorithm called without the replication's ctx would be
// missing from the trace or have no parent. The latency experiment must
// also record a compile span, its gain matrix and counter plan, directly
// under every replication.
func TestAlgorithmSpansNestUnderReplications(t *testing.T) {
	obs.SetDefault(nil)
	for _, tc := range []struct {
		name     string
		run      func(context.Context) error
		compiles bool
	}{
		{"latency", func(ctx context.Context) error {
			_, err := RunLatencyCtx(ctx, LatencyConfig{Networks: 2, Links: 20, Trials: 1, Workers: 2, Seed: 3})
			return err
		}, true},
		{"baseline", func(ctx context.Context) error {
			_, err := RunBaselineCtx(ctx, BaselineConfig{Networks: 2, Links: 20, Workers: 2, Seed: 3})
			return err
		}, false},
		{"reduction", func(ctx context.Context) error {
			_, err := RunReductionCtx(ctx, ReductionConfig{Sizes: []int{10}, NetworksPer: 2, SamplesPerStp: 20, Workers: 2, Seed: 3})
			return err
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTracer(0)
			if err := tc.run(obs.WithTracer(context.Background(), tr)); err != nil {
				t.Fatal(err)
			}
			spans := tr.Snapshot()
			byID := make(map[uint64]obs.SpanRecord, len(spans))
			for _, s := range spans {
				byID[s.ID] = s
			}
			algorithm := 0
			for _, s := range spans {
				pkg, _, _ := strings.Cut(s.Name, ".")
				if pkg != "capacity" && pkg != "latency" && pkg != "transform" {
					continue
				}
				algorithm++
				p, ok := byID[s.Parent]
				for ok && p.Name != "replication" {
					p, ok = byID[p.Parent]
				}
				if !ok {
					t.Errorf("span %s (id %d, parent %d) does not reach a replication span", s.Name, s.ID, s.Parent)
				}
			}
			if algorithm == 0 {
				t.Fatalf("no algorithm spans among %d recorded", len(spans))
			}
			if !tc.compiles {
				return
			}
			compiled := make(map[uint64]int)
			for _, s := range spans {
				if s.Name == "compile" {
					compiled[s.Parent]++
				}
			}
			for _, s := range spans {
				if s.Name == "replication" && compiled[s.ID] != 1 {
					t.Errorf("replication %d has %d compile spans, want 1", s.ID, compiled[s.ID])
				}
			}
		})
	}
}

// TestParallelCtxBodyContext: each body's ctx carries its replication span
// and is done once the run's ctx is cancelled.
func TestParallelCtxBodyContext(t *testing.T) {
	tr := obs.NewTracer(0)
	ctx, cancel := context.WithCancel(obs.WithTracer(context.Background(), tr))
	defer cancel()
	type seen struct {
		span     uint64
		doneLive bool
		doneEnd  bool
	}
	got, err := ParallelCtx(ctx, 1, 1, rng.New(1), func(ctx context.Context, rep int, _ *rng.Source) seen {
		var s seen
		if sp := obs.SpanFrom(ctx); sp != nil {
			s.span = sp.ID()
		}
		s.doneLive = ctx.Err() != nil
		cancel()
		s.doneEnd = ctx.Err() != nil
		return s
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var rep *obs.SpanRecord
	for _, s := range tr.Snapshot() {
		if s.Name == "replication" {
			rep = &s
		}
	}
	if rep == nil || got[0].span != rep.ID {
		t.Fatalf("body ctx carried span %d, want the replication span %+v", got[0].span, rep)
	}
	if got[0].doneLive || !got[0].doneEnd {
		t.Fatalf("body ctx done before cancel = %v, after cancel = %v; want false, true", got[0].doneLive, got[0].doneEnd)
	}
}
