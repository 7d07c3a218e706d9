package fading

import (
	"math"
	"slices"
	"testing"
	"time"

	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
)

// referenceSampleSINRs is the pre-kernel implementation of SampleSINRs: a
// full O(n²) pass over the matrix, skipping inactive pairs, allocating its
// result. The kernels must reproduce its output draw-for-draw; keeping the
// old loop here pins that contract against an independent implementation.
func referenceSampleSINRs(m *network.Matrix, active []bool, src *rng.Source) []float64 {
	out := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		if !active[i] {
			continue
		}
		interf := m.Noise
		var own float64
		for j := 0; j < m.N; j++ {
			if !active[j] {
				continue
			}
			s := src.Exp(m.At(j, i))
			if j == i {
				own = s
			} else {
				interf += s
			}
		}
		if interf == 0 {
			if own > 0 {
				out[i] = math.Inf(1)
			}
			continue
		}
		out[i] = own / interf
	}
	return out
}

// referenceCounterfactual is the realized SINR link i would have had had it
// transmitted alongside the links of active, drawn as the regret game's
// counterfactual loop drew it before it moved onto the Counter: i's own
// signal first, then each active sender j ≠ i in index order, through
// rng.Exp, which draws nothing for a zero gain.
func referenceCounterfactual(m *network.Matrix, active []bool, i int, src *rng.Source) float64 {
	own := src.Exp(m.At(i, i))
	interf := m.Noise
	for j := 0; j < m.N; j++ {
		if active[j] && j != i {
			interf += src.Exp(m.At(j, i))
		}
	}
	if interf == 0 {
		if own > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return own / interf
}

// randomActive draws an activity vector with density p.
func randomActive(src *rng.Source, n int, p float64) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = src.Bernoulli(p)
	}
	return active
}

func TestSampleSINRsIntoMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 40, 100} {
		m := randomMatrix(t, uint64(n), n)
		vals := make([]float64, n)
		idx := make([]int, 0, n)
		setup := rng.New(uint64(100 + n))
		for _, density := range []float64{0, 0.1, 0.5, 1} {
			active := randomActive(setup, n, density)
			src := rng.New(uint64(7 * n))
			want := referenceSampleSINRs(m, active, src.Clone())
			got := SampleSINRsInto(m, active, RayleighGains{}, src.Clone(), vals, idx)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d density=%.1f link %d: kernel %g, reference %g", n, density, i, got[i], want[i])
				}
			}
			// The two paths must also leave the stream at the same position.
			ref, ker := src.Clone(), src.Clone()
			referenceSampleSINRs(m, active, ref)
			SampleSINRsInto(m, active, RayleighGains{}, ker, vals, idx)
			if ref.Uint64() != ker.Uint64() {
				t.Fatalf("n=%d density=%.1f: kernel consumed a different number of draws", n, density)
			}
		}
	}
}

// TestCountSuccessesMatchesSampleSuccesses pins Counter.Count's per-link
// flags, which Scenario.SampleRayleighSuccesses returns as a set, to the
// reference's success set and stream position, and its count to their size.
func TestCountSuccessesMatchesSampleSuccesses(t *testing.T) {
	m := randomMatrix(t, 6, 80)
	c := NewCounter(m)
	ok := make([]bool, 80)
	setup := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		active := randomActive(setup, 80, setup.Float64())
		src := rng.New(uint64(1000 + trial))
		ref := src.Clone()
		var want []int
		for i, v := range referenceSampleSINRs(m, active, ref) {
			if active[i] && v >= 2.5 {
				want = append(want, i)
			}
		}
		counted := src.Clone()
		n := c.Count(active, 2.5, counted, ok)
		if got := sinr.ActiveList(ok, nil); !slices.Equal(got, want) || counted.Uint64() != ref.Uint64() {
			t.Fatalf("trial %d: Counter.Count flags %v, reference %v (or a different stream position)", trial, got, want)
		}
		if n != len(want) {
			t.Fatalf("trial %d: Counter.Count %d, reference %d", trial, n, len(want))
		}
	}
}

// zeroSomeGains sets every third entry of m to zero gain, diagonal entries
// included, selecting the entries by phase ∈ {0, 1, 2}.
func zeroSomeGains(m *network.Matrix, phase int) *network.Matrix {
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if (i*m.N+j)%3 == phase {
				m.SetGain(j, i, 0)
			}
		}
	}
	return m
}

// checkCountSuccesses asserts that c.Count and CountSuccesses, each starting
// from a stream seeded with seed, return the success count of
// referenceSampleSINRs on c's matrix and leave the stream at the same
// position, and that c.Count's per-link flags are the reference's
// decisions. It then asserts that c.Counterfactual, asked about every link,
// active or not, decides as referenceCounterfactual's SINR does and leaves
// the stream where it does. c is reused from call to call and tries dense
// sets on its head before the straight sum, sparse ones on the straight sum
// alone; CountSuccesses has no head. The scratch of both starts out NaN-filled, and
// the flags true, so a read of a slot the kernel did not write, or a flag it
// did not clear, shows up as a mismatch. The counterfactual calls leave c's
// tallies as they found them: callers read those of the one Count call.
func checkCountSuccesses(t testing.TB, c *Counter, active []bool, beta float64, seed uint64) {
	t.Helper()
	m := c.m
	ref := rng.New(seed)
	want := 0
	reached := make([]bool, m.N)
	for i, v := range referenceSampleSINRs(m, active, ref) {
		if active[i] && v >= beta {
			reached[i] = true
			want++
		}
	}
	next := ref.Uint64()
	scratch := make([]float64, m.N)
	ok := make([]bool, m.N)
	for i := range ok {
		ok[i] = true
	}
	for _, kernel := range []struct {
		name  string
		count func(*rng.Source) int
	}{
		{"Counter.Count", func(src *rng.Source) int { return c.Count(active, beta, src, ok) }},
		{"CountSuccesses", func(src *rng.Source) int {
			return CountSuccesses(m, active, beta, src, scratch, make([]int, 0, m.N))
		}},
	} {
		for i := range scratch {
			c.u[i], scratch[i] = math.NaN(), math.NaN()
		}
		src := rng.New(seed)
		if got := kernel.count(src); got != want {
			t.Fatalf("n=%d β=%g ν=%g seed=%d: %s %d, reference %d", m.N, beta, m.Noise, seed, kernel.name, got, want)
		}
		if src.Uint64() != next {
			t.Fatalf("n=%d β=%g ν=%g seed=%d: %s consumed a different number of draws", m.N, beta, m.Noise, seed, kernel.name)
		}
	}
	if !slices.Equal(ok, reached) {
		t.Fatalf("n=%d β=%g ν=%g seed=%d: Counter.Count flags %v, reference %v", m.N, beta, m.Noise, seed, ok, reached)
	}
	fallbacks := c.fallbacks
	c.Prepare(active)
	for i := 0; i < m.N; i++ {
		ref := rng.New(seed)
		want := referenceCounterfactual(m, active, i, ref) >= beta
		for k := range scratch {
			c.u[k] = math.NaN()
		}
		src := rng.New(seed)
		if got := c.Counterfactual(i, beta, src); got != want {
			t.Fatalf("n=%d β=%g ν=%g seed=%d: Counterfactual(link %d, active %v) = %v, reference %v", m.N, beta, m.Noise, seed, i, active[i], got, want)
		}
		if src.Uint64() != ref.Uint64() {
			t.Fatalf("n=%d β=%g ν=%g seed=%d: Counterfactual(link %d) consumed a different number of draws", m.N, beta, m.Noise, seed, i)
		}
	}
	c.fallbacks = fallbacks
}

// TestCountSuccessesMatchesReference covers sets with and without the head,
// zero gains, and noise levels and thresholds outside the filter's domain:
// zero, negative, subnormal, infinite and NaN.
func TestCountSuccessesMatchesReference(t *testing.T) {
	forSumPaths(t, func(t *testing.T) {
		for _, n := range []int{1, 7, 40, 100} {
			setup := rng.New(uint64(200 + n))
			for _, zeroed := range []bool{false, true} {
				m := randomMatrix(t, uint64(n), n)
				if zeroed {
					zeroSomeGains(m, n%3)
				}
				c := NewCounter(m)
				for _, noise := range []float64{m.Noise, 0, -1e-3, 5e-324, math.Inf(1), math.NaN()} {
					m.Noise = noise
					for _, density := range []float64{0, 0.1, 0.5, 1} {
						active := randomActive(setup, n, density)
						for _, beta := range []float64{0.5, 2.5, 50, 0, 5e-324, math.Inf(1), math.NaN()} {
							checkCountSuccesses(t, c, active, beta, uint64(31*n)+setup.Uint64()%1000)
						}
					}
				}
			}
		}
	})
}

// TestCountSuccessesNoiselessEdges pins the interf == 0 branch: with no noise,
// a lone transmitter reaches SINR +Inf, and one whose own gain is zero too
// has SINR 0, which reaches only a threshold of at most 0.
func TestCountSuccessesNoiselessEdges(t *testing.T) {
	m := mat(t, [][]float64{
		{1, 0, 0.5},
		{0, 0, 0},
		{0.5, 0, 1},
	}, 0)
	c := NewCounter(m)
	for _, tc := range []struct {
		active []bool
		beta   float64
		want   int
	}{
		{[]bool{true, false, false}, 1e300, 1},
		{[]bool{true, true, false}, 50, 1},
		{[]bool{false, true, false}, 2.5, 0},
		{[]bool{false, true, false}, 0, 1},
		{[]bool{true, true, true}, 1e300, 0},
	} {
		got := c.Count(tc.active, tc.beta, rng.New(1), nil)
		if got != tc.want {
			t.Errorf("active=%v β=%g: %d successes, want %d", tc.active, tc.beta, got, tc.want)
		}
		checkCountSuccesses(t, c, tc.active, tc.beta, 1)
	}
}

// TestCountSuccessesExactTies sets β to a realized SINR ratio computed from
// the same draws, so own/interf == β holds exactly: once for the full sum
// (the link succeeds), once for the noise alone and once for a partial sum
// (the stop test must not fire on equality; the link then fails on the
// remaining terms). The ties at the full sum, and at a partial sum whose
// remaining term is below the filter's margin, are too close for the bounds
// and must reach the canonical fallback; the others are far from a tie once
// every term is in, and the bounds reject them.
func TestCountSuccessesExactTies(t *testing.T) {
	forSumPaths(t, func(t *testing.T) {
		m := mat(t, [][]float64{
			{1, 0.02, 0.03},
			{0.2, 1, 0.01},
			{0.1, 0.05, 1},
		}, 0.05)
		active := []bool{true, true, true}
		const seed = 9
		// Receiver 0 draws first, senders in index order.
		draw := rng.New(seed)
		u0, u1, u2 := draw.Float64Open(), draw.Float64Open(), draw.Float64Open()
		own := -m.At(0, 0) * math.Log(u0)
		s1 := -m.At(1, 0) * math.Log(u1)
		s2 := -m.At(2, 0) * math.Log(u2)
		full := own / (m.Noise + s1 + s2)
		if got := referenceSampleSINRs(m, active, rng.New(seed))[0]; got != full {
			t.Fatalf("hand-computed SINR %g, reference %g", full, got)
		}
		// A copy whose last term at receiver 0 is four units of roundoff of the
		// partial sum before it: it still moves the sum, but stays inside δ.
		faint := mat(t, [][]float64{
			{1, 0.02, 0.03},
			{0.2, 1, 0.01},
			{0.1, 0.05, 1},
		}, 0.05)
		faint.SetGain(2, 0, 4*0x1p-53*(m.Noise+s1)/-math.Log(u2))
		if sum := m.Noise + s1; sum+-faint.At(2, 0)*math.Log(u2) == sum {
			t.Fatal("the faint term does not change the partial sum")
		}
		for _, tc := range []struct {
			name     string
			m        *network.Matrix
			beta     float64
			reach0   bool
			fallback bool
		}{
			{"full sum", m, full, true, true},
			{"noise only", m, own / m.Noise, false, false},
			{"partial sum", m, own / (m.Noise + s1), false, false},
			{"partial sum, faint rest", faint, own / (m.Noise + s1), false, true},
		} {
			vals := referenceSampleSINRs(tc.m, active, rng.New(seed))
			if reached := vals[0] >= tc.beta; reached != tc.reach0 {
				t.Fatalf("%s: link 0 reaches β=%g is %v, want %v", tc.name, tc.beta, reached, tc.reach0)
			}
			c := NewCounter(tc.m)
			checkCountSuccesses(t, c, active, tc.beta, seed)
			if fell := c.fallbacks > 0; fell != tc.fallback {
				t.Errorf("%s: %d receivers reached the fallback, want a fallback: %v", tc.name, c.fallbacks, tc.fallback)
			}
		}
	})
}

// TestCounterFallsBackOutsideDomain pins that thresholds and noise levels
// outside the normal positive range skip the filter for every receiver,
// save an exact zero noise, and that the paper's settings, with their noise
// or none, never need the fallback.
func TestCounterFallsBackOutsideDomain(t *testing.T) {
	m := randomMatrix(t, 19, 40)
	active := randomActive(rng.New(20), 40, 0.8)
	a := 0
	for _, on := range active {
		if on {
			a++
		}
	}
	noise := m.Noise
	for _, tc := range []struct {
		name      string
		beta, nu  float64
		fallbacks int
	}{
		{"paper settings", 2.5, noise, 0},
		{"ν = 0", 2.5, 0, 0},
		{"β = 0", 0, noise, a},
		{"β = +Inf", math.Inf(1), noise, a},
		{"β = NaN", math.NaN(), noise, a},
		{"ν subnormal", 2.5, 5e-324, a},
		{"ν = NaN", 2.5, math.NaN(), a},
	} {
		m.Noise = tc.nu
		c := NewCounter(m)
		checkCountSuccesses(t, c, active, tc.beta, 21)
		// checkCountSuccesses counts once with c.
		if c.fallbacks != tc.fallbacks {
			t.Errorf("%s: %d receivers fell back, want %d", tc.name, c.fallbacks, tc.fallbacks)
		}
	}
}

// TestCoarseTierDecidesPaperSettings pins that at the paper's settings
// (n = 100, β = 2.5, ν = 4·10⁻⁷) the one-lookup coarse tier settles at
// least 99% of receivers on its own, with and without the head, with counts
// and stream positions equal to the reference.
func TestCoarseTierDecidesPaperSettings(t *testing.T) {
	forSumPaths(t, func(t *testing.T) {
		m := randomMatrix(t, 23, 100)
		setup := rng.New(24)
		for _, density := range []float64{0.25, 0.5, 1} {
			c := NewCounter(m)
			receivers := 0
			for trial := 0; trial < 100; trial++ {
				active := randomActive(setup, m.N, density)
				for _, on := range active {
					if on {
						receivers++
					}
				}
				checkCountSuccesses(t, c, active, 2.5, setup.Uint64())
			}
			if 100*c.fallbacks > receivers {
				t.Errorf("density %.2f: the coarse tier left %d of %d receivers undecided, more than 1%%", density, c.fallbacks, receivers)
			}
			t.Logf("density %.2f: %d of %d receivers left to the canonical loop", density, c.fallbacks, receivers)
		}
	})
}

// spreadMatrix returns an n-link matrix in which receiver 0 hears every
// other sender at the same weak gain w, so its interference is spread over
// many senders beyond its head, and sender 0 swamps every other receiver,
// whose head then rejects it on the first term.
func spreadMatrix(t testing.TB, n int, w, noise float64) *network.Matrix {
	g := make([][]float64, n)
	for j := range g {
		g[j] = make([]float64, n)
		for i := range g[j] {
			switch {
			case i == j:
				g[j][i] = 1
			case j == 0:
				g[j][i] = 1e3
			default:
				g[j][i] = w
			}
		}
	}
	return mat(t, g, noise)
}

// TestStraightSumDecidesBeyondTheHead pins the coarse tier's split on a
// receiver whose head cannot reject it: even the coarse sum over every head
// sender stays below own/β's lower end. The straight sum then rejects it at
// 1.5 times its realized SINR and accepts it at a third less, with counts,
// flags and stream positions equal to the reference's and no receiver left
// to the canonical loop.
func TestStraightSumDecidesBeyondTheHead(t *testing.T) {
	const n, seed = 40, 5
	m := spreadMatrix(t, n, 0.02, 4e-7)
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	// Receiver 0 draws first: its own uniform, then every sender's in order.
	u := make([]float64, n)
	rng.New(seed).FillOpen(u)
	sinr := referenceSampleSINRs(m, active, rng.New(seed))[0]
	for _, tc := range []struct {
		name  string
		beta  float64
		reach bool
	}{
		{"rejected", 1.5 * sinr, false},
		{"accepted", sinr / 1.5, true},
	} {
		c := NewCounter(m)
		lo := m.Own(0) * (negLogCoarse(u[0]) - coarseErr) / tc.beta
		head := m.Noise
		for _, j := range c.head[:min(HeadSize, n-1)] {
			head += m.At(int(j), 0) * negLogCoarse(u[j])
		}
		if head >= lo {
			t.Fatalf("%s: the head's coarse sum %g reaches own/β ≥ %g, so the head could reject", tc.name, head, lo)
		}
		if reach := sinr >= tc.beta; reach != tc.reach {
			t.Fatalf("%s: receiver 0 reaches β=%g is %v, want %v", tc.name, tc.beta, reach, tc.reach)
		}
		checkCountSuccesses(t, c, active, tc.beta, seed)
		if c.fallbacks != 0 {
			t.Errorf("%s: the coarse tier left %d receivers undecided, want 0", tc.name, c.fallbacks)
		}
	}
}

// TestStraightSumKeepsItsMarginsAtTies puts receiver 0 of a two-link
// network at an exact tie, where the table value of its one interferer's
// term misstates the interference by more than the own-signal bracket
// absorbs: overstated at the β it reaches, understated at the next β up,
// which it misses. Without coarseErr·G in the straight sum's reject test,
// or in accept, the coarse tier would decide it wrongly; with them it
// leaves receiver 0, and only it, to the canonical loop.
func TestStraightSumKeepsItsMarginsAtTies(t *testing.T) {
	forSumPaths(t, func(t *testing.T) {
		m := mat(t, [][]float64{{1, 1e3}, {0.5, 1}}, 1e-9)
		active := []bool{true, true}
		delta := float64(len(active)+8) * 0x1p-50
		for _, tc := range []struct {
			name  string
			seed  uint64
			above bool
		}{
			{"overstated", 2, false},
			{"understated", 9, true},
		} {
			src := rng.New(tc.seed)
			u0, u1 := src.Float64Open(), src.Float64Open()
			beta := referenceSampleSINRs(m, active, rng.New(tc.seed))[0]
			if tc.above {
				beta = math.Nextafter(beta, math.Inf(1))
			}
			sum := m.Noise + m.At(1, 0)*negLogCoarse(u1)
			own := m.Own(0) * negLogCoarse(u0)
			if !tc.above && !(sum*(1-delta) > (own+coarseErr)/beta*(1+delta)) {
				t.Fatalf("%s: the table sum %g does not clear own/β ≤ %g", tc.name, sum, (own+coarseErr)/beta)
			}
			if tc.above && !(sum*(1+delta) < (own-coarseErr)/beta*(1-delta)) {
				t.Fatalf("%s: the table sum %g is not below own/β ≥ %g", tc.name, sum, (own-coarseErr)/beta)
			}
			c := NewCounter(m)
			checkCountSuccesses(t, c, active, beta, tc.seed)
			if c.fallbacks != 1 {
				t.Errorf("%s: the coarse tier left %d receivers to the canonical loop, want 1", tc.name, c.fallbacks)
			}
		}
	})
}

// TestCanonicalLoopDecidesBeyondTheBracket pins the second way into the
// canonical loop: a receiver whose own uniform exceeds exp(−coarseErr) has
// lo ≤ 0, outside the coarse tier's domain, so it skips that tier even at
// the paper's β and ν, and the canonical loop alone decides it. The seed is
// the first from 1 whose first uniform, receiver 0's own, is that close to
// 1. With an interferer receiver 0 misses β; heard by no one it reaches it
// on its faint own signal over the noise alone. Both match the reference,
// and both Count and Counterfactual tally receiver 0 as a fallback.
func TestCanonicalLoopDecidesBeyondTheBracket(t *testing.T) {
	const beta, noise = 2.5, 4e-7
	seed := uint64(1)
	for negLogCoarse(rng.New(seed).Float64Open()) > coarseErr {
		seed++
	}
	active := []bool{true, true}
	for _, tc := range []struct {
		name   string
		interf float64
		reach  bool
	}{
		{"interfered", 0.5, false},
		{"alone", 0, true},
	} {
		m := mat(t, [][]float64{{1, 0.5}, {tc.interf, 1}}, noise)
		if reach := referenceSampleSINRs(m, active, rng.New(seed))[0] >= beta; reach != tc.reach {
			t.Fatalf("%s, seed %d: receiver 0 reaches β is %v, want %v", tc.name, seed, reach, tc.reach)
		}
		c := NewCounter(m)
		checkCountSuccesses(t, c, active, beta, seed)
		if c.fallbacks < 1 {
			t.Errorf("%s, seed %d: Count left %d receivers to the canonical loop, want receiver 0 among them", tc.name, seed, c.fallbacks)
		}
		c = NewCounter(m)
		c.Prepare(active)
		if got := c.Counterfactual(0, beta, rng.New(seed)); got != tc.reach || c.fallbacks != 1 {
			t.Errorf("%s, seed %d: Counterfactual(link 0) = %v with %d fallbacks, want %v with 1", tc.name, seed, got, c.fallbacks, tc.reach)
		}
	}
}

// TestNegLogCoarseErrorBound pins coarseErr: over every table cell and every
// binary exponent a uniform from Float64Open can have, at both cell
// endpoints, the centre and points between, negLogCoarse stays within
// coarseErr of −ln u. math.Log is itself within an ulp, which the comparison
// allows for.
func TestNegLogCoarseErrorBound(t *testing.T) {
	worst := 0.0
	for e := -53; e <= -1; e++ {
		for k := 0; k < coarseCells; k++ {
			lo := 1 + float64(k)/coarseCells
			hi := math.Nextafter(1+float64(k+1)/coarseCells, 0)
			for _, mant := range []float64{lo, math.Nextafter(lo, 2), lo + 0.25/coarseCells, lo + 0.5/coarseCells, lo + 0.75/coarseCells, math.Nextafter(hi, 0), hi} {
				u := math.Ldexp(mant, e)
				want := -math.Log(u)
				ulp := math.Nextafter(want, math.Inf(1)) - want
				err := math.Abs(negLogCoarse(u) - want)
				if err > coarseErr-ulp {
					t.Fatalf("u = %v (2^%d × %v): negLogCoarse %v, −ln u %v, error %g > %g", u, e, mant, negLogCoarse(u), want, err, coarseErr-ulp)
				}
				worst = max(worst, err)
			}
		}
	}
	t.Logf("largest error %g (coarseErr %g)", worst, coarseErr)
}

func TestKernelsAllocationFree(t *testing.T) {
	m := randomMatrix(t, 14, 100)
	active := randomActive(rng.New(15), 100, 0.5)
	vals := make([]float64, 100)
	idx := make([]int, 0, 100)
	src := rng.New(16)
	for _, sampler := range []GainSampler{RayleighGains{}, NakagamiGains{M: 2}} {
		if allocs := testing.AllocsPerRun(50, func() {
			SampleSINRsInto(m, active, sampler, src, vals, idx)
		}); allocs != 0 {
			t.Errorf("SampleSINRsInto with %s allocates %.1f objects per run", sampler.Name(), allocs)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		CountSuccesses(m, active, 2.5, src, vals, idx)
	}); allocs != 0 {
		t.Errorf("CountSuccesses allocates %.1f objects per run", allocs)
	}
	c := NewCounter(m)
	ok := make([]bool, 100)
	for _, density := range []float64{0.1, 0.5, 1} {
		active := randomActive(rng.New(17), 100, density)
		if allocs := testing.AllocsPerRun(50, func() {
			c.Count(active, 2.5, src, nil)
			c.Count(active, 2.5, src, ok)
			c.Counterfactual(7, 2.5, src)
		}); allocs != 0 {
			t.Errorf("Counter.Count and Counterfactual at density %.1f allocate %.1f objects per run", density, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			c.Prepare(active)
			c.Realize(2.5, src, nil)
			c.Realize(2.5, src, ok)
			c.Counterfactual(7, 2.5, src)
		}); allocs != 0 {
			t.Errorf("a prepared set's Realize and Counterfactual at density %.1f allocate %.1f objects per run", density, allocs)
		}
	}
	// The closed-form evaluator is part of the kernel layer's zero-alloc
	// contract too: the benchmark suite pins fading/expected-successes-100 at
	// exactly 0 allocs/op, so any stray allocation on this path is a bug.
	q := UniformProbs(100, 0.3)
	if allocs := testing.AllocsPerRun(50, func() {
		ExpectedSuccessesExact(m, q, 2.5)
	}); allocs != 0 {
		t.Errorf("ExpectedSuccessesExact allocates %.1f objects per run", allocs)
	}
}

func TestKernelScratchValidation(t *testing.T) {
	m := randomMatrix(t, 17, 10)
	active := make([]bool, 10)
	src := rng.New(18)
	for name, fn := range map[string]func(){
		"short out": func() { SampleSINRsInto(m, active, RayleighGains{}, src, make([]float64, 9), make([]int, 0, 10)) },
		"short idx": func() { SampleSINRsInto(m, active, RayleighGains{}, src, make([]float64, 10), make([]int, 0, 9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestNewCounterCost holds building a Counter to a fifth of building the
// gain matrix it counts on, so the per-matrix set-up stays a small share of
// a request that builds both. Each side takes the fastest of several
// interleaved runs, which discounts a busy host. The race detector slows the
// memory-bound sort far more than the arithmetic-bound matrix, so a -race
// build skips the comparison.
func TestNewCounterCost(t *testing.T) {
	if raceEnabled {
		t.Skip("timing comparison is meaningless under -race")
	}
	cfg := network.Figure1Config()
	net, err := network.Random(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var m *network.Matrix
	gains, counter := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < 15; r++ {
		start := time.Now()
		m = net.Gains()
		gains = min(gains, time.Since(start))
		start = time.Now()
		NewCounter(m)
		counter = min(counter, time.Since(start))
	}
	if counter*5 > gains {
		t.Errorf("NewCounter takes %v, more than a fifth of Gains' %v", counter, gains)
	}
	t.Logf("n=%d: Gains %v, NewCounter %v", m.N, gains, counter)
}
