package graphsched

import (
	"context"
	"testing"
	"testing/quick"

	"rayfade/internal/capacity"
	"rayfade/internal/network"
	"rayfade/internal/rng"
)

func fig1Matrix(t testing.TB, seed uint64, n int) *network.Matrix {
	t.Helper()
	cfg := network.Figure1Config()
	cfg.N = n
	net, err := network.Random(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net.Gains()
}

func TestFromMatrixSymmetric(t *testing.T) {
	m := fig1Matrix(t, 1, 30)
	g := FromMatrix(m, 2.5, DefaultThreshold)
	for i := 0; i < g.N; i++ {
		if g.adj[i][i] {
			t.Fatalf("self-conflict at %d", i)
		}
		for j := 0; j < g.N; j++ {
			if g.adj[i][j] != g.adj[j][i] {
				t.Fatalf("asymmetric conflict %d-%d", i, j)
			}
		}
	}
	// Degrees consistent with adjacency.
	edges := 0
	for i := 0; i < g.N; i++ {
		count := 0
		for j := 0; j < g.N; j++ {
			if g.adj[i][j] {
				count++
			}
		}
		if count != g.deg[i] {
			t.Fatalf("degree mismatch at %d: %d vs %d", i, count, g.deg[i])
		}
		edges += count
	}
	if edges < 2 {
		t.Fatal("Figure-1 density should produce conflicts")
	}
}

func TestFromMatrixPanics(t *testing.T) {
	m := fig1Matrix(t, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromMatrix(m, 2.5, 0)
}

func TestIndependentSetIsIndependent(t *testing.T) {
	m := fig1Matrix(t, 3, 60)
	g := FromMatrix(m, 2.5, DefaultThreshold)
	set := g.IndependentSet()
	if len(set) == 0 {
		t.Fatal("empty independent set")
	}
	for a := range set {
		for b := a + 1; b < len(set); b++ {
			if g.adj[set[a]][set[b]] {
				t.Fatalf("links %d and %d conflict", set[a], set[b])
			}
		}
	}
	// Maximality: every outside link conflicts with someone inside.
	inSet := map[int]bool{}
	for _, i := range set {
		inSet[i] = true
	}
	for i := 0; i < g.N; i++ {
		if inSet[i] {
			continue
		}
		conflicting := false
		for _, s := range set {
			if g.adj[i][s] {
				conflicting = true
				break
			}
		}
		if !conflicting {
			t.Fatalf("link %d could join the independent set", i)
		}
	}
}

func TestColoringValid(t *testing.T) {
	m := fig1Matrix(t, 5, 60)
	g := FromMatrix(m, 2.5, DefaultThreshold)
	classes := g.Coloring()
	seen := map[int]bool{}
	for _, class := range classes {
		for a := range class {
			if seen[class[a]] {
				t.Fatalf("link %d colored twice", class[a])
			}
			seen[class[a]] = true
			for b := a + 1; b < len(class); b++ {
				if g.adj[class[a]][class[b]] {
					t.Fatalf("same-color conflict %d-%d", class[a], class[b])
				}
			}
		}
	}
	if len(seen) != g.N {
		t.Fatalf("coloring covers %d of %d links", len(seen), g.N)
	}
	// Greedy bound: colors ≤ max degree + 1.
	maxDeg := 0
	for i := 0; i < g.N; i++ {
		if g.deg[i] > maxDeg {
			maxDeg = g.deg[i]
		}
	}
	if len(classes) > maxDeg+1 {
		t.Fatalf("%d colors exceeds Δ+1 = %d", len(classes), maxDeg+1)
	}
}

// The headline comparison: graph-feasible sets are not always
// SINR-feasible (accumulation of weak interferers), while the SINR-aware
// greedy's output is always independent-set-checkable AND SINR-feasible.
func TestGraphModelMissesAccumulation(t *testing.T) {
	violationsSeen := false
	for seed := uint64(0); seed < 12 && !violationsSeen; seed++ {
		m := fig1Matrix(t, seed+50, 100)
		g := FromMatrix(m, 2.5, DefaultThreshold)
		ev := EvaluateSchedule(m, g.Coloring(), 2.5)
		if ev.Scheduled != m.N {
			t.Fatalf("schedule covers %d of %d", ev.Scheduled, m.N)
		}
		if ev.Violations > 0 {
			violationsSeen = true
		}
	}
	if !violationsSeen {
		t.Fatal("expected at least one instance where the graph schedule violates the SINR constraint")
	}
}

func TestSINRGreedyAlwaysSurvivesEvaluation(t *testing.T) {
	cfg := network.Figure1Config()
	net, err := network.Random(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	m := net.Gains()
	set, _ := capacity.GreedyAffectanceCtx(context.Background(), m, 2.5, capacity.DefaultTau, capacity.LengthOrder(net))
	ev := EvaluateSchedule(m, [][]int{set}, 2.5)
	if ev.Violations != 0 {
		t.Fatalf("SINR-aware set had %d violations under its own evaluation", ev.Violations)
	}
}

// Property: independent sets and colorings are structurally valid for any
// threshold and instance.
func TestQuickGraphStructures(t *testing.T) {
	f := func(seed uint64, tauRaw uint8) bool {
		m := fig1Matrix(t, seed, 25)
		tau := 0.1 + float64(tauRaw%10)/10
		g := FromMatrix(m, 2.5, tau)
		set := g.IndependentSet()
		for a := range set {
			for b := a + 1; b < len(set); b++ {
				if g.adj[set[a]][set[b]] {
					return false
				}
			}
		}
		covered := 0
		for _, class := range g.Coloring() {
			covered += len(class)
		}
		return covered == g.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A tighter conflict threshold (smaller τ) keeps every edge of a looser
// one, hence yields no larger independent sets.
func TestThresholdMonotonicity(t *testing.T) {
	m := fig1Matrix(t, 11, 80)
	loose := FromMatrix(m, 2.5, 0.9)
	tight := FromMatrix(m, 2.5, 0.1)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if loose.adj[i][j] && !tight.adj[i][j] {
				t.Fatalf("conflict %d-%d at τ = 0.9 missing at τ = 0.1", i, j)
			}
		}
	}
	if len(tight.IndependentSet()) > len(loose.IndependentSet()) {
		t.Fatal("tight τ produced a larger independent set")
	}
}

func BenchmarkFromMatrix100(b *testing.B) {
	m := fig1Matrix(b, 1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromMatrix(m, 2.5, DefaultThreshold)
	}
}

func BenchmarkColoring100(b *testing.B) {
	m := fig1Matrix(b, 1, 100)
	g := FromMatrix(m, 2.5, DefaultThreshold)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Coloring()
	}
}
