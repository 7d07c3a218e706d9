package opt

import (
	"context"
	"testing"
	"testing/quick"

	"rayfade/internal/capacity"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
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

// exhaustive checks all 2^n subsets; the reference oracle for tiny n.
func exhaustive(m *network.Matrix, beta float64) int {
	best := 0
	n := m.N
	for mask := 0; mask < 1<<n; mask++ {
		var set []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
			}
		}
		if len(set) > best && sinr.Feasible(m, set, beta) {
			best = len(set)
		}
	}
	return best
}

func TestBruteForceMatchesExhaustive(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		m := fig1Matrix(t, seed, 10)
		beta := 2.5
		got := BruteForce(m, beta)
		if !sinr.Feasible(m, got, beta) {
			t.Fatalf("seed %d: brute-force set infeasible", seed)
		}
		if want := exhaustive(m, beta); len(got) != want {
			t.Fatalf("seed %d: brute force found %d, exhaustive %d", seed, len(got), want)
		}
	}
}

func TestBruteForceDominatesGreedy(t *testing.T) {
	for seed := uint64(10); seed < 20; seed++ {
		cfg := network.Figure1Config()
		cfg.N = 16
		net, err := network.Random(cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		m := net.Gains()
		bf := BruteForce(m, 2.5)
		greedy, _ := capacity.GreedyAffectanceCtx(context.Background(), m, 2.5, capacity.DefaultTau, capacity.LengthOrder(net))
		if len(bf) < len(greedy) {
			t.Fatalf("seed %d: optimum %d below greedy %d", seed, len(bf), len(greedy))
		}
	}
}

func TestBruteForceNoiseDominated(t *testing.T) {
	m := fig1Matrix(t, 1, 8)
	m.Noise = 1e9
	if got := BruteForce(m, 2.5); len(got) != 0 {
		t.Fatalf("noise-dominated instance has optimum %v", got)
	}
}

func TestBruteForcePanics(t *testing.T) {
	big := fig1Matrix(t, 1, MaxBruteForceN+1)
	for _, fn := range []func(){
		func() { BruteForce(big, 2.5) },
		func() { BruteForce(fig1Matrix(t, 1, 4), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestBruteForceWeightedUnitWeightsMatchesUnweighted(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		m := fig1Matrix(t, seed+70, 12)
		plain := BruteForce(m, 2.5)
		set, w := BruteForceWeighted(m, 2.5)
		if len(set) != len(plain) {
			t.Fatalf("seed %d: weighted optimum %d vs unweighted %d", seed, len(set), len(plain))
		}
		if w != float64(len(set)) {
			t.Fatalf("seed %d: weight %g for %d unit-weight links", seed, w, len(set))
		}
		if !sinr.Feasible(m, set, 2.5) {
			t.Fatalf("seed %d: weighted optimum infeasible", seed)
		}
	}
}

func TestBruteForceWeightedPrefersHeavyLink(t *testing.T) {
	m := fig1Matrix(t, 77, 12)
	for i := range m.Weights {
		m.Weights[i] = 1
	}
	m.Weights[3] = 100
	set, w := BruteForceWeighted(m, 2.5)
	found := false
	for _, i := range set {
		if i == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("dominant-weight link not in the optimum")
	}
	if w < 100 {
		t.Fatalf("optimum weight %g below the heavy link alone", w)
	}
}

// The weighted greedy never beats the exact weighted optimum, and lands
// within a reasonable factor of it on small instances.
func TestGreedyWeightedAgainstExact(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		m := fig1Matrix(t, seed+90, 12)
		src := rng.New(seed)
		for i := range m.Weights {
			m.Weights[i] = 1 + 9*src.Float64()
		}
		_, gw, _ := capacity.GreedyWeighted(context.Background(), m, 2.5)
		_, ow := BruteForceWeighted(m, 2.5)
		if gw > ow+1e-9 {
			t.Fatalf("seed %d: greedy weight %g beats optimum %g", seed, gw, ow)
		}
		if gw < ow/4 {
			t.Fatalf("seed %d: greedy weight %g below optimum/4 = %g", seed, gw, ow/4)
		}
	}
}

func TestBruteForceWeightedPanics(t *testing.T) {
	big := fig1Matrix(t, 1, MaxBruteForceN+1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BruteForceWeighted(big, 2.5)
}

func TestLocalSearchFeasibleAndDominatesGreedy(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		cfg := network.Figure1Config()
		net, err := network.Random(cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		m := net.Gains()
		ls := LocalSearch(m, 2.5, DefaultLocalSearch, rng.New(seed+999))
		if !sinr.Feasible(m, ls, 2.5) {
			t.Fatalf("seed %d: local-search set infeasible", seed)
		}
		greedy, _ := capacity.GreedyAffectanceCtx(context.Background(), m, 2.5, capacity.DefaultTau, capacity.LengthOrder(net))
		if len(ls) < len(greedy) {
			t.Fatalf("seed %d: local search %d below greedy %d", seed, len(ls), len(greedy))
		}
	}
}

func TestLocalSearchNearOptimalOnSmallInstances(t *testing.T) {
	for seed := uint64(30); seed < 36; seed++ {
		m := fig1Matrix(t, seed, 14)
		bf := BruteForce(m, 2.5)
		ls := LocalSearch(m, 2.5, DefaultLocalSearch, rng.New(seed*7))
		if len(ls) > len(bf) {
			t.Fatalf("seed %d: local search %d beats exact optimum %d", seed, len(ls), len(bf))
		}
		// With 8 restarts on n=14 it should land within one of optimal.
		if len(ls) < len(bf)-1 {
			t.Fatalf("seed %d: local search %d far below optimum %d", seed, len(ls), len(bf))
		}
	}
}

func TestLocalSearchDeterministicPerSeed(t *testing.T) {
	m := fig1Matrix(t, 3, 40)
	a := LocalSearch(m, 2.5, DefaultLocalSearch, rng.New(42))
	b := LocalSearch(m, 2.5, DefaultLocalSearch, rng.New(42))
	if len(a) != len(b) {
		t.Fatalf("identical seeds gave %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical seeds gave different sets")
		}
	}
}

func TestLocalSearchDefaultsOnZeroConfig(t *testing.T) {
	m := fig1Matrix(t, 5, 20)
	set := LocalSearch(m, 2.5, LocalSearchConfig{}, rng.New(1))
	if !sinr.Feasible(m, set, 2.5) {
		t.Fatal("zero-config local search infeasible")
	}
	if len(set) == 0 {
		t.Fatal("zero-config local search empty")
	}
}

func TestLocalSearchPanicsOnBadBeta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LocalSearch(fig1Matrix(t, 1, 5), -1, DefaultLocalSearch, rng.New(1))
}

// On the paper's Figure-1 workload the optimum estimate should land in the
// vicinity of the reported 49.75 (we assert a generous band; EXPERIMENTS.md
// records the precise measured mean).
func TestLocalSearchFigure1Band(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	total := 0
	const nets = 5
	for seed := uint64(0); seed < nets; seed++ {
		net, err := network.Random(network.Figure1Config(), rng.New(seed+500))
		if err != nil {
			t.Fatal(err)
		}
		set := LocalSearch(net.Gains(), 2.5, LocalSearchConfig{Restarts: 4, SwapPasses: 15}, rng.New(seed))
		total += len(set)
	}
	avg := float64(total) / nets
	if avg < 35 || avg > 70 {
		t.Fatalf("Figure-1 optimum estimate %.1f outside plausible band [35,70]", avg)
	}
}

// Property: local search always returns a feasible set without duplicates.
func TestQuickLocalSearchWellFormed(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		m := fig1Matrix(t, seed, n)
		set := LocalSearch(m, 2.5, LocalSearchConfig{Restarts: 2, SwapPasses: 5}, rng.New(seed^0xff))
		seen := map[int]bool{}
		for _, i := range set {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return sinr.Feasible(m, set, 2.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBruteForce16(b *testing.B) {
	m := fig1Matrix(b, 1, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForce(m, 2.5)
	}
}

func BenchmarkLocalSearch100(b *testing.B) {
	m := fig1Matrix(b, 1, 100)
	src := rng.New(2)
	cfg := LocalSearchConfig{Restarts: 2, SwapPasses: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalSearch(m, 2.5, cfg, src)
	}
}
