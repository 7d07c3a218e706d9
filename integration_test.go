package rayfade

// Integration tests exercising chains of modules through the public API —
// the cross-cutting invariants no single package can check alone.

import (
	"math"
	"testing"

	"rayfade/internal/fading"
	"rayfade/internal/opt"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
)

// The full reduction chain on exhaustively solvable instances: compute the
// true non-fading optimum AND the true "Rayleigh optimum over deterministic
// transmit sets" (the best expected success count over all 2^n subsets),
// then check both directions of the paper's relationship:
//
//	rayleighOPT ≥ nonFadingOPT / e              (Lemma 2)
//	rayleighOPT ≤ C·log*(n) · nonFadingOPT      (Theorem 2; C small here)
func TestReductionChainExhaustive(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		cfg := Figure1Workload()
		cfg.N = 10
		scn, err := NewScenario(cfg, 2.5, seed+600)
		if err != nil {
			t.Fatal(err)
		}
		m := scn.Network().Gains()

		nfOPT := float64(len(scn.ExactOptimum()))

		rayleighOPT := 0.0
		n := scn.N()
		for mask := 1; mask < 1<<n; mask++ {
			var set []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					set = append(set, i)
				}
			}
			if v := fading.ExpectedBinaryValueOfSet(m, set, 2.5); v > rayleighOPT {
				rayleighOPT = v
			}
		}

		if rayleighOPT < nfOPT/math.E-1e-9 {
			t.Fatalf("seed %d: Rayleigh OPT %.3f below nonfading OPT/e = %.3f",
				seed, rayleighOPT, nfOPT/math.E)
		}
		// On these instances the factor is near 1; allow 2 to stay robust
		// while still far below any log* allowance.
		if nfOPT > 0 && rayleighOPT > 2*nfOPT {
			t.Fatalf("seed %d: Rayleigh OPT %.3f exceeds 2×nonfading OPT %.0f",
				seed, rayleighOPT, nfOPT)
		}
	}
}

// End-to-end determinism: every stochastic stage of the pipeline replays
// identically for the same seed.
func TestPipelineDeterministic(t *testing.T) {
	run := func() (sizes [3]int, exp float64, slots int, regretVal float64) {
		cfg := Figure1Workload()
		cfg.N = 50
		scn, err := NewScenario(cfg, 2.5, 777)
		if err != nil {
			t.Fatal(err)
		}
		greedy := scn.GreedyCapacity()
		est := scn.OptimumEstimate()
		pc := scn.PowerControlCapacity()
		sizes = [3]int{len(greedy), len(est), len(pc.Set)}
		exp = scn.ExpectedRayleighSuccesses(greedy)
		sched, err := scn.RepeatedCapacitySchedule()
		if err != nil {
			t.Fatal(err)
		}
		slots, done := scn.PlayScheduleRayleigh(sched, 500)
		if !done {
			t.Fatal("replay incomplete")
		}
		regretVal = scn.RunRegretLearning(60, true).MaxAverageRegret()
		return sizes, exp, slots, regretVal
	}
	s1, e1, sl1, r1 := run()
	s2, e2, sl2, r2 := run()
	if s1 != s2 || e1 != e2 || sl1 != sl2 || r1 != r2 {
		t.Fatalf("pipeline not deterministic: %v/%v %g/%g %d/%d %g/%g",
			s1, s2, e1, e2, sl1, sl2, r1, r2)
	}
}

// A power-control solution evaluated through the fading layer: the set
// selected with chosen powers must keep the Lemma-2 guarantee when its
// powers are applied — i.e. the reduction composes with power control.
func TestPowerControlComposesWithTransfer(t *testing.T) {
	cfg := Figure1Workload()
	cfg.N = 40
	scn, err := NewScenario(cfg, 2.5, 888)
	if err != nil {
		t.Fatal(err)
	}
	pc := scn.PowerControlCapacity()
	powered := pc.ApplyPowers(scn.Network())
	m := powered.Gains()
	if !sinr.Feasible(m, pc.Set, 2.5*(1-1e-9)) {
		t.Fatal("power-control set infeasible under its powers")
	}
	exp := fading.ExpectedBinaryValueOfSet(m, pc.Set, 2.5)
	if floor := float64(len(pc.Set)) / math.E; exp < floor-1e-9 {
		t.Fatalf("expected fading value %.3f below Lemma-2 floor %.3f", exp, floor)
	}
}

// The latency schedule produced by repeated capacity, transformed per
// Section 4 and replayed under Rayleigh fading, must serve every link —
// and the regret learner on the same instance must reach a throughput
// consistent with the schedule's slot count (throughput ≈ n / slots within
// a generous factor).
func TestLatencyAndRegretConsistency(t *testing.T) {
	cfg := Figure2Workload()
	cfg.N = 80
	scn, err := NewScenario(cfg, 0.5, 999)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scn.RepeatedCapacitySchedule()
	if err != nil {
		t.Fatal(err)
	}
	perSlot := float64(scn.N()) / float64(len(sched))
	h := scn.RunRegretLearning(150, false)
	converged := h.AverageSuccesses(50)
	if converged < perSlot/6 {
		t.Fatalf("regret throughput %.1f far below schedule throughput %.1f", converged, perSlot)
	}
}

// Algorithm 1's schedule replayed through the latency machinery: expanding
// each step's slots and playing them in the NON-fading model must give each
// link at least the per-step success probability the theorem argues about —
// operationally, a large fraction of links succeed at least once.
func TestSimulationSchedulePlaysThroughLatency(t *testing.T) {
	cfg := Figure1Workload()
	cfg.N = 40
	scn, err := NewScenario(cfg, 2.5, 1111)
	if err != nil {
		t.Fatal(err)
	}
	q := scn.UniformProbs(1)
	steps := scn.SimulationSchedule(q)
	src := rng.New(5)
	m := scn.Network().Gains()
	reached := make([]bool, m.N)
	active := make([]bool, m.N)
	for _, step := range steps {
		for rep := 0; rep < step.Repeats; rep++ {
			for i := range active {
				active[i] = src.Bernoulli(step.Probs[i])
			}
			for i, v := range sinr.Values(m, active) {
				reached[i] = reached[i] || v >= 2.5
			}
		}
	}
	succeeded := 0
	for _, r := range reached {
		if r {
			succeeded++
		}
	}
	if succeeded < scn.N()/4 {
		t.Fatalf("only %d of %d links ever reached β across the whole simulation", succeeded, scn.N())
	}
}

// Local search through the facade agrees with the exact optimum on
// exhaustively checkable sizes (integration of opt + facade + sinr).
func TestOptimumEstimateNearExactSmall(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		cfg := Figure1Workload()
		cfg.N = 13
		scn, err := NewScenario(cfg, 2.5, 1300+seed)
		if err != nil {
			t.Fatal(err)
		}
		exact := len(scn.ExactOptimum())
		est := len(scn.OptimumEstimate())
		if est > exact {
			t.Fatalf("seed %d: estimate %d beats exact %d", seed, est, exact)
		}
		if est < exact-1 {
			t.Fatalf("seed %d: estimate %d far below exact %d", seed, est, exact)
		}
	}
}

// Scale smoke test: the full pipeline stays correct and tractable at 3× the
// paper's network size. Guarded by -short for quick iteration.
func TestLargeNetworkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Figure1Workload()
	cfg.N = 300
	scn, err := NewScenario(cfg, 2.5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	set := scn.GreedyCapacity()
	if len(set) == 0 || !scn.Feasible(set) {
		t.Fatalf("greedy at n=300: %d links, feasible=%v", len(set), scn.Feasible(set))
	}
	exp := scn.ExpectedRayleighSuccesses(set)
	if exp < float64(len(set))/math.E {
		t.Fatalf("Lemma-2 floor broken at scale: %g < %g", exp, float64(len(set))/math.E)
	}
	sched, err := scn.RepeatedCapacitySchedule()
	if err != nil {
		t.Fatal(err)
	}
	if _, done := scn.PlayScheduleRayleigh(sched, 500); !done {
		t.Fatal("Rayleigh replay incomplete at n=300")
	}
	h := scn.RunRegretLearning(50, true)
	if h.AverageSuccesses(10) <= 0 {
		t.Fatal("regret learning degenerate at n=300")
	}
}

// Guard the brute-force cap through the facade.
func TestExactOptimumPanicsOnLargeN(t *testing.T) {
	cfg := Figure1Workload()
	cfg.N = opt.MaxBruteForceN + 1
	scn, err := NewScenario(cfg, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	scn.ExactOptimum()
}
