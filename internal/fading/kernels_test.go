package fading

import (
	"math"
	"testing"
	"time"

	"rayfade/internal/network"
	"rayfade/internal/rng"
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
			got := SampleSINRsInto(m, active, src.Clone(), vals, idx)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d density=%.1f link %d: kernel %g, reference %g", n, density, i, got[i], want[i])
				}
			}
			// The two paths must also leave the stream at the same position.
			ref, ker := src.Clone(), src.Clone()
			referenceSampleSINRs(m, active, ref)
			SampleSINRsInto(m, active, ker, vals, idx)
			if ref.Uint64() != ker.Uint64() {
				t.Fatalf("n=%d density=%.1f: kernel consumed a different number of draws", n, density)
			}
		}
	}
}

func TestSampleSINRsWrapperMatchesKernel(t *testing.T) {
	m := randomMatrix(t, 3, 50)
	active := randomActive(rng.New(4), 50, 0.6)
	src := rng.New(5)
	a := SampleSINRs(m, active, src.Clone())
	b := SampleSINRsInto(m, active, src.Clone(), make([]float64, 50), make([]int, 0, 50))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("link %d: wrapper %g, kernel %g", i, a[i], b[i])
		}
	}
}

func TestCountSuccessesMatchesSampleSuccesses(t *testing.T) {
	m := randomMatrix(t, 6, 80)
	c := NewCounter(m)
	setup := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		active := randomActive(setup, 80, setup.Float64())
		src := rng.New(uint64(1000 + trial))
		want := len(SampleSuccesses(m, active, 2.5, src.Clone()))
		got := c.Count(active, 2.5, src.Clone())
		if want != got {
			t.Fatalf("trial %d: Counter.Count %d, SampleSuccesses %d", trial, got, want)
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
// position. c is reused from call to call and visits dense active sets
// strongest first and sparse ones in index order; CountSuccesses visits
// every set in index order. The scratch of both starts out NaN-filled, so a
// read of a slot the kernel did not write shows up as a mismatch.
func checkCountSuccesses(t testing.TB, c *Counter, active []bool, beta float64, seed uint64) {
	t.Helper()
	m := c.m
	ref := rng.New(seed)
	want := 0
	for i, v := range referenceSampleSINRs(m, active, ref) {
		if active[i] && v >= beta {
			want++
		}
	}
	next := ref.Uint64()
	scratch := make([]float64, m.N)
	for _, kernel := range []struct {
		name  string
		count func(*rng.Source) int
	}{
		{"Counter.Count", func(src *rng.Source) int { return c.Count(active, beta, src) }},
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
}

// TestCountSuccessesMatchesReference covers both visit orders, zero gains,
// and noise levels and thresholds outside the filter's domain: zero,
// negative, subnormal, infinite and NaN.
func TestCountSuccessesMatchesReference(t *testing.T) {
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
		got := c.Count(tc.active, tc.beta, rng.New(1))
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
}

// TestCounterFallsBackOutsideDomain pins that thresholds and noise levels
// outside the normal positive range skip the filter for every receiver,
// and that the paper's settings never need the fallback.
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
		{"β = 0", 0, noise, a},
		{"β = +Inf", math.Inf(1), noise, a},
		{"β = NaN", math.NaN(), noise, a},
		{"ν = 0", 2.5, 0, a},
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

// TestNegLogErrorBound pins logErr: over every table cell and every binary
// exponent a uniform from Float64Open can have, at both cell endpoints, the
// centre and points between, negLog stays within logErr of −ln u. math.Log
// is itself within an ulp, which the comparison allows for.
func TestNegLogErrorBound(t *testing.T) {
	worst := 0.0
	for e := -53; e <= -1; e++ {
		for k := 0; k < logCells; k++ {
			lo := 1 + float64(k)/logCells
			hi := math.Nextafter(1+float64(k+1)/logCells, 0)
			for _, mant := range []float64{lo, math.Nextafter(lo, 2), lo + 0.25/logCells, lo + 0.5/logCells, lo + 0.75/logCells, math.Nextafter(hi, 0), hi} {
				u := math.Ldexp(mant, e)
				want := -math.Log(u)
				ulp := math.Nextafter(want, math.Inf(1)) - want
				err := math.Abs(negLog(u) - want)
				if err > logErr-ulp {
					t.Fatalf("u = %v (2^%d × %v): negLog %v, −ln u %v, error %g > %g", u, e, mant, negLog(u), want, err, logErr-ulp)
				}
				worst = max(worst, err)
			}
		}
	}
	t.Logf("largest error %g (logErr %g)", worst, logErr)
}

func TestSampleSINRsWithIntoMatchesAllocatingForm(t *testing.T) {
	m := randomMatrix(t, 8, 60)
	active := randomActive(rng.New(9), 60, 0.5)
	vals := make([]float64, 60)
	idx := make([]int, 0, 60)
	for _, sampler := range []GainSampler{RayleighGains{}, NakagamiGains{M: 2}, NonFadingGains{}} {
		src := rng.New(10)
		want := SampleSINRsWith(m, active, sampler, src.Clone())
		got := SampleSINRsWithInto(m, active, sampler, src.Clone(), vals, idx)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s link %d: kernel %g, allocating form %g", sampler.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestRayleighKernelMatchesGenericKernel pins that the specialized Rayleigh
// kernel and the GainSampler-generic kernel consume the identical stream, so
// experiments may switch between them without breaking fixed-seed outputs.
func TestRayleighKernelMatchesGenericKernel(t *testing.T) {
	m := randomMatrix(t, 11, 60)
	active := randomActive(rng.New(12), 60, 0.7)
	src := rng.New(13)
	a := SampleSINRsInto(m, active, src.Clone(), make([]float64, 60), make([]int, 0, 60))
	b := SampleSINRsWithInto(m, active, RayleighGains{}, src.Clone(), make([]float64, 60), make([]int, 0, 60))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("link %d: rayleigh kernel %g, generic kernel %g", i, a[i], b[i])
		}
	}
}

func TestKernelsAllocationFree(t *testing.T) {
	m := randomMatrix(t, 14, 100)
	active := randomActive(rng.New(15), 100, 0.5)
	vals := make([]float64, 100)
	idx := make([]int, 0, 100)
	src := rng.New(16)
	if allocs := testing.AllocsPerRun(50, func() {
		SampleSINRsInto(m, active, src, vals, idx)
	}); allocs != 0 {
		t.Errorf("SampleSINRsInto allocates %.1f objects per run", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		CountSuccesses(m, active, 2.5, src, vals, idx)
	}); allocs != 0 {
		t.Errorf("CountSuccesses allocates %.1f objects per run", allocs)
	}
	c := NewCounter(m)
	for _, density := range []float64{0.1, 0.5, 1} {
		active := randomActive(rng.New(17), 100, density)
		if allocs := testing.AllocsPerRun(50, func() {
			c.Count(active, 2.5, src)
		}); allocs != 0 {
			t.Errorf("Counter.Count at density %.1f allocates %.1f objects per run", density, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		SampleSINRsWithInto(m, active, RayleighGains{}, src, vals, idx)
	}); allocs != 0 {
		t.Errorf("SampleSINRsWithInto allocates %.1f objects per run", allocs)
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
		"short out": func() { SampleSINRsInto(m, active, src, make([]float64, 9), make([]int, 0, 10)) },
		"short idx": func() { SampleSINRsInto(m, active, src, make([]float64, 10), make([]int, 0, 9)) },
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
