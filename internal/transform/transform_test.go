package transform

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"rayfade/internal/fading"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/stats"
	"rayfade/internal/utility"
)

func randomMatrix(t testing.TB, seed uint64, n int) *network.Matrix {
	t.Helper()
	cfg := network.Figure1Config()
	cfg.N = n
	net, err := network.Random(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net.Gains()
}

func TestTransferReportsNonFadingValue(t *testing.T) {
	m := randomMatrix(t, 1, 20)
	set := []int{2, 7, 11}
	us := utility.Uniform(utility.Binary{Beta: 2.5})
	rep := Transfer(m, set, us)
	active := sinr.SetToActive(m.N, set)
	want := utility.Sum(us, sinr.Values(m, active))
	if rep.NonFadingValue != want {
		t.Fatalf("NonFadingValue = %g, want %g", rep.NonFadingValue, want)
	}
	if math.Abs(rep.GuaranteedValue-want/math.E) > 1e-15 {
		t.Fatalf("GuaranteedValue = %g, want %g", rep.GuaranteedValue, want/math.E)
	}
	if len(rep.PerLinkSINR) != len(set) {
		t.Fatalf("PerLinkSINR has %d entries", len(rep.PerLinkSINR))
	}
	// The report must not alias the caller's set.
	rep.Set[0] = 99
	if set[0] == 99 {
		t.Fatal("Transfer aliased the input set")
	}
}

// Lemma 2, the paper's statement, verified exactly via Theorem 1: for
// binary utilities the expected Rayleigh value of a transferred feasible
// set is at least NonFadingValue/e.
func TestLemma2HoldsExactly(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMatrix(t, seed, 15)
		src := rng.New(seed ^ 0xbeef)
		beta := 2.5
		var set []int
		for i := 0; i < m.N; i++ {
			if src.Bernoulli(0.3) {
				set = append(set, i)
			}
		}
		us := utility.Uniform(utility.Binary{Beta: beta})
		rep := Transfer(m, set, us)
		got := fading.ExpectedBinaryValueOfSet(m, set, beta)
		return got >= rep.GuaranteedValue-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Lemma 2 for Shannon utilities, via Monte Carlo.
func TestLemma2ShannonMC(t *testing.T) {
	m := randomMatrix(t, 7, 12)
	src := rng.New(70)
	set := []int{0, 3, 5, 9}
	us := utility.Uniform(utility.Shannon{})
	rep := Transfer(m, set, us)
	q := make([]float64, m.N)
	for _, i := range set {
		q[i] = 1
	}
	mc := fading.ExpectedUtilityMC(m, q, us, 20000, src)
	if mc.Mean < rep.GuaranteedValue-5*mc.StdErr {
		t.Fatalf("Shannon transfer: MC %g ± %g below guarantee %g", mc.Mean, mc.StdErr, rep.GuaranteedValue)
	}
}

func TestRepeatedSuccessProbability(t *testing.T) {
	// r = 1 recovers the single-shot bound p/e.
	if got, want := RepeatedSuccessProbability(0.4, 1), 0.4/math.E; math.Abs(got-want) > 1e-15 {
		t.Fatalf("r=1: %g, want %g", got, want)
	}
	// Monotone in r.
	prev := 0.0
	for r := 1; r <= 10; r++ {
		p := RepeatedSuccessProbability(0.3, r)
		if p <= prev {
			t.Fatalf("not increasing in r at r=%d", r)
		}
		prev = p
	}
	if got := RepeatedSuccessProbability(0, 4); got != 0 {
		t.Fatalf("p=0 gives %g", got)
	}
}

// The Section-4 claim: with 4 repeats, the Rayleigh success probability
// dominates the original non-fading probability for all p ≤ 1/2.
func TestFourRepeatsSufficeForHalf(t *testing.T) {
	f := func(pRaw float64) bool {
		if math.IsNaN(pRaw) {
			return true
		}
		p := math.Abs(math.Mod(pRaw, 0.5))
		return RepeatedSuccessProbability(p, AlohaRepeats) >= p-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// And check the endpoint p = 1/2 explicitly.
	if RepeatedSuccessProbability(0.5, AlohaRepeats) < 0.5 {
		t.Fatal("4 repeats do not cover p = 1/2")
	}
	// Sanity: 1 repeat does NOT suffice (the transformation is necessary).
	if RepeatedSuccessProbability(0.5, 1) >= 0.5 {
		t.Fatal("1 repeat should not dominate p = 1/2")
	}
}

func TestRepeatedSuccessProbabilityPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { RepeatedSuccessProbability(-0.1, 4) },
		func() { RepeatedSuccessProbability(1.1, 4) },
		func() { RepeatedSuccessProbability(0.5, 0) },
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

func TestScheduleStructure(t *testing.T) {
	n := 100
	q := fading.UniformProbs(n, 1)
	steps := Schedule(q, ScheduleRepeats)
	if len(steps) == 0 {
		t.Fatal("empty schedule")
	}
	// Level count matches the tower.
	if got, want := len(steps), stats.TowerLevels(n); got != want {
		t.Fatalf("levels = %d, want %d", got, want)
	}
	// First step: b_0 = 1/4, probabilities q/(4·1/4) = q.
	if steps[0].B != 0.25 {
		t.Fatalf("b_0 = %g", steps[0].B)
	}
	for i := range q {
		if math.Abs(steps[0].Probs[i]-q[i]) > 1e-15 {
			t.Fatalf("step 0 probs[%d] = %g, want %g", i, steps[0].Probs[i], q[i])
		}
	}
	// Tower recursion between consecutive steps.
	for k := 1; k < len(steps); k++ {
		want := math.Exp(steps[k-1].B / 2)
		if math.Abs(steps[k].B-want) > 1e-12 {
			t.Fatalf("b_%d = %g, want %g", k, steps[k].B, want)
		}
	}
	// All probabilities valid and scaled correctly.
	for _, s := range steps {
		if s.Repeats != ScheduleRepeats {
			t.Fatalf("step %d repeats = %d", s.Level, s.Repeats)
		}
		for i, p := range s.Probs {
			if p < 0 || p > 1 {
				t.Fatalf("step %d probs[%d] = %g", s.Level, i, p)
			}
			want := math.Min(1, q[i]/(4*s.B))
			if math.Abs(p-want) > 1e-15 {
				t.Fatalf("step %d probs[%d] = %g, want %g", s.Level, i, p, want)
			}
		}
	}
}

func TestScheduleSlotsAreLogStar(t *testing.T) {
	for _, n := range []int{1, 10, 100, 10000, 1000000} {
		steps := Schedule(fading.UniformProbs(n, 0.5), ScheduleRepeats)
		slots := TotalSlots(steps)
		if slots != len(steps)*ScheduleRepeats {
			t.Fatalf("TotalSlots inconsistent: %d vs %d steps", slots, len(steps))
		}
		// log* growth: even a million links need only a handful of levels.
		if len(steps) > 10 {
			t.Fatalf("n=%d: %d levels, want O(log* n)", n, len(steps))
		}
	}
}

func TestScheduleEmptyAndPanics(t *testing.T) {
	if steps := Schedule(nil, 19); steps != nil {
		t.Fatal("empty q should give empty schedule")
	}
	for _, fn := range []func(){
		func() { Schedule([]float64{0.5}, 0) },
		func() { Schedule([]float64{1.5}, 19) },
		func() { Schedule([]float64{-0.5}, 19) },
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

func TestRunScheduleOnce(t *testing.T) {
	m := randomMatrix(t, 9, 20)
	steps := Schedule(fading.UniformProbs(m.N, 1), 3)
	src := rng.New(42)
	best := RunScheduleOnce(m, steps, src)
	if len(best) != m.N {
		t.Fatalf("len = %d", len(best))
	}
	for i, v := range best {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("best[%d] = %g", i, v)
		}
	}
	// With q = 1 and step-0 probabilities = 1, every link transmits in
	// step 0's slots, so every link gets at least one attempt: its best
	// SINR must be positive (noise is finite).
	for i, v := range best {
		if v == 0 {
			t.Fatalf("link %d never achieved positive SINR despite q=1", i)
		}
	}
}

func TestRunScheduleOncePanicsOnShapeMismatch(t *testing.T) {
	m := randomMatrix(t, 9, 5)
	steps := Schedule(fading.UniformProbs(7, 1), 2) // wrong width
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunScheduleOnce(m, steps, rng.New(1))
}

// Theorem 2's empirical content: the simulation (best over its attempts)
// captures at least a constant fraction of the Rayleigh expected value.
// The proof gives E[u(γ^R)] ≤ 8·E[u(max_t γ^{nf,t})]; we verify with slack.
func TestTheorem2SimulationDominates(t *testing.T) {
	for _, seed := range []uint64{3, 5, 8} {
		m := randomMatrix(t, seed, 40)
		src := rng.New(seed * 1000)
		q := make([]float64, m.N)
		for i := range q {
			q[i] = src.Float64()
		}
		beta := 2.5
		us := utility.Uniform(utility.Binary{Beta: beta})

		rayleigh := fading.ExpectedSuccessesExact(m, q, beta)
		sim := SimulationValueMC(m, Schedule(q, ScheduleRepeats), us, 300, src)
		if sim.Mean < rayleigh/8-3*sim.StdErr {
			t.Fatalf("seed %d: simulation %g ± %g below Rayleigh/8 = %g",
				seed, sim.Mean, sim.StdErr, rayleigh/8)
		}
	}
}

// Theorem 2's per-link inequality from the proof: E[u_i(γ^R)] ≤
// 8·E[u_i(max_t γ_i^{nf,t})] for every link, verified by Monte Carlo with
// sampling slack.
func TestTheorem2PerLinkConstant(t *testing.T) {
	m := randomMatrix(t, 17, 25)
	src := rng.New(171)
	q := make([]float64, m.N)
	for i := range q {
		q[i] = 0.3 + 0.7*src.Float64()
	}
	beta := 2.5
	steps := Schedule(q, ScheduleRepeats)
	const samples = 400
	simHits := make([]float64, m.N)
	for s := 0; s < samples; s++ {
		best := RunScheduleOnce(m, steps, src)
		for i, v := range best {
			if v >= beta {
				simHits[i]++
			}
		}
	}
	for i := 0; i < m.N; i++ {
		rayleigh := fading.ExactSuccess(m, q, beta, i)
		simProb := simHits[i] / samples
		se := math.Sqrt(simProb*(1-simProb)/samples) + 1e-3
		if rayleigh > 8*(simProb+3*se) {
			t.Fatalf("link %d: Rayleigh %g exceeds 8×simulation %g", i, rayleigh, simProb)
		}
	}
}

// The best single step is within a constant-per-level factor of the whole
// simulation, and BestStepCtx picks the maximal estimate.
func TestBestStepSelection(t *testing.T) {
	m := randomMatrix(t, 13, 30)
	src := rng.New(77)
	q := fading.UniformProbs(m.N, 0.8)
	us := utility.Uniform(utility.Binary{Beta: 2.5})
	steps := Schedule(q, ScheduleRepeats)
	best, all, err := BestStepCtx(context.Background(), m, steps, us, 400, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(steps) {
		t.Fatalf("got %d step values for %d steps", len(all), len(steps))
	}
	for _, sv := range all {
		if sv.Value.Mean > best.Value.Mean {
			t.Fatalf("BestStepCtx missed a better step: %g > %g", sv.Value.Mean, best.Value.Mean)
		}
	}
	// The best step's single-slot value must be ≥ simulation value divided
	// by the total number of attempts (union bound), with MC slack.
	sim := SimulationValueMC(m, steps, us, 300, src)
	floor := sim.Mean/float64(TotalSlots(steps)) - 3*(sim.StdErr+best.Value.StdErr)
	if best.Value.Mean < floor {
		t.Fatalf("best step %g below union-bound floor %g", best.Value.Mean, floor)
	}
}

func TestBestStepPanics(t *testing.T) {
	m := randomMatrix(t, 13, 5)
	us := utility.Uniform(utility.Binary{Beta: 2.5})
	for _, fn := range []func(){
		func() { BestStepCtx(context.Background(), m, nil, us, 10, rng.New(1)) },
		func() {
			BestStepCtx(context.Background(), m, Schedule(fading.UniformProbs(5, 1), 19), us, 0, rng.New(1))
		},
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

func TestSimulationValueMCPanics(t *testing.T) {
	m := randomMatrix(t, 13, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SimulationValueMC(m, nil, utility.Uniform(utility.Shannon{}), 0, rng.New(1))
}

func TestExpandSchedule(t *testing.T) {
	slots := [][]int{{0, 1}, {2}}
	out := ExpandSchedule(slots, 4)
	if len(out) != 8 {
		t.Fatalf("len = %d, want 8", len(out))
	}
	for r := 0; r < 4; r++ {
		if len(out[r]) != 2 || out[r][0] != 0 || out[r][1] != 1 {
			t.Fatalf("slot %d = %v", r, out[r])
		}
		if len(out[4+r]) != 1 || out[4+r][0] != 2 {
			t.Fatalf("slot %d = %v", 4+r, out[4+r])
		}
	}
	// Deep copy: mutating output must not touch input.
	out[0][0] = 99
	if slots[0][0] == 99 {
		t.Fatal("ExpandSchedule aliased its input")
	}
}

func TestExpandSchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ExpandSchedule([][]int{{0}}, 0)
}

func TestLossFactorValue(t *testing.T) {
	if math.Abs(LossFactor-1/math.E) > 1e-18 {
		t.Fatalf("LossFactor = %g", LossFactor)
	}
}

func BenchmarkSchedule100(b *testing.B) {
	q := fading.UniformProbs(100, 0.7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Schedule(q, ScheduleRepeats)
	}
}

func BenchmarkRunScheduleOnce100(b *testing.B) {
	m := randomMatrix(b, 1, 100)
	steps := Schedule(fading.UniformProbs(100, 0.7), ScheduleRepeats)
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunScheduleOnce(m, steps, src)
	}
}

// BenchmarkAblationAlgorithm1Repeats varies the per-level repetition count
// of Algorithm 1 (paper: 19). Reported metric: simulated value captured.
func BenchmarkAblationAlgorithm1Repeats(b *testing.B) {
	m := randomMatrix(b, 13, 60)
	q := fading.UniformProbs(60, 0.8)
	us := utility.Uniform(utility.Binary{Beta: 2.5})
	for _, repeats := range []int{1, 4, 19} {
		name := map[int]string{1: "repeats=01", 4: "repeats=04", 19: "repeats=19"}[repeats]
		b.Run(name, func(b *testing.B) {
			steps := Schedule(q, repeats)
			src := rng.New(14)
			var val float64
			for i := 0; i < b.N; i++ {
				val = SimulationValueMC(m, steps, us, 20, src).Mean
			}
			b.ReportMetric(val, "sim_value")
		})
	}
}
