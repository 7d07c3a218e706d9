package fading

import (
	"math"
	"testing"

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
	vals := make([]float64, 80)
	idx := make([]int, 0, 80)
	setup := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		active := randomActive(setup, 80, setup.Float64())
		src := rng.New(uint64(1000 + trial))
		want := len(SampleSuccesses(m, active, 2.5, src.Clone()))
		got := CountSuccesses(m, active, 2.5, src.Clone(), vals, idx)
		if want != got {
			t.Fatalf("trial %d: CountSuccesses %d, SampleSuccesses %d", trial, got, want)
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

// checkCountSuccesses asserts that CountSuccesses, starting from a stream
// seeded with seed, returns the success count of referenceSampleSINRs and
// leaves the stream at the same position. The kernel's scratch starts out
// NaN-filled, so a read of a slot it did not write shows up as a mismatch.
func checkCountSuccesses(t testing.TB, m *network.Matrix, active []bool, beta float64, seed uint64) {
	t.Helper()
	ref, ker := rng.New(seed), rng.New(seed)
	want := 0
	for i, v := range referenceSampleSINRs(m, active, ref) {
		if active[i] && v >= beta {
			want++
		}
	}
	scratch := make([]float64, m.N)
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	got := CountSuccesses(m, active, beta, ker, scratch, make([]int, 0, m.N))
	if got != want {
		t.Fatalf("n=%d β=%g ν=%g seed=%d: CountSuccesses %d, reference %d", m.N, beta, m.Noise, seed, got, want)
	}
	if ref.Uint64() != ker.Uint64() {
		t.Fatalf("n=%d β=%g ν=%g seed=%d: kernel consumed a different number of draws", m.N, beta, m.Noise, seed)
	}
}

func TestCountSuccessesMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 40, 100} {
		setup := rng.New(uint64(200 + n))
		for _, zeroed := range []bool{false, true} {
			m := randomMatrix(t, uint64(n), n)
			if zeroed {
				zeroSomeGains(m, n%3)
			}
			for _, noise := range []float64{m.Noise, 0} {
				m.Noise = noise
				for _, density := range []float64{0, 0.1, 0.5, 1} {
					active := randomActive(setup, n, density)
					for _, beta := range []float64{0.5, 2.5, 50} {
						checkCountSuccesses(t, m, active, beta, uint64(31*n)+setup.Uint64()%1000)
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
		got := CountSuccesses(m, tc.active, tc.beta, rng.New(1), make([]float64, 3), make([]int, 0, 3))
		if got != tc.want {
			t.Errorf("active=%v β=%g: %d successes, want %d", tc.active, tc.beta, got, tc.want)
		}
		checkCountSuccesses(t, m, tc.active, tc.beta, 1)
	}
}

// TestCountSuccessesExactTies sets β to a realized SINR ratio computed from
// the same draws, so own/interf == β holds exactly: once for the full sum
// (the link succeeds), once for the noise alone and once for a partial sum
// (the stop test must not fire on equality; the link then fails on the
// remaining terms).
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
	own := draw.Exp(m.At(0, 0))
	s1 := draw.Exp(m.At(1, 0))
	s2 := draw.Exp(m.At(2, 0))
	full := own / (m.Noise + s1 + s2)
	if got := referenceSampleSINRs(m, active, rng.New(seed))[0]; got != full {
		t.Fatalf("hand-computed SINR %g, reference %g", full, got)
	}
	for _, tc := range []struct {
		name   string
		beta   float64
		reach0 bool
	}{
		{"full sum", full, true},
		{"noise only", own / m.Noise, false},
		{"partial sum", own / (m.Noise + s1), false},
	} {
		vals := referenceSampleSINRs(m, active, rng.New(seed))
		if reached := vals[0] >= tc.beta; reached != tc.reach0 {
			t.Fatalf("%s: link 0 reaches β=%g is %v, want %v", tc.name, tc.beta, reached, tc.reach0)
		}
		checkCountSuccesses(t, m, active, tc.beta, seed)
	}
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
