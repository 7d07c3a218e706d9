package fading

import (
	"math"
	"testing"

	"rayfade/internal/network"
	"rayfade/internal/rng"
)

func TestSamplerNames(t *testing.T) {
	if (RayleighGains{}).Name() == "" {
		t.Fatal("empty sampler name")
	}
	if got := (NakagamiGains{M: 2}).Name(); got != "nakagami(m=2)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestSamplerZeroMean(t *testing.T) {
	src := rng.New(1)
	for _, s := range []GainSampler{RayleighGains{}, NakagamiGains{M: 2}} {
		if v := s.SampleGain(0, src); v != 0 {
			t.Fatalf("%s: SampleGain(0) = %g", s.Name(), v)
		}
	}
}

func TestNakagamiMeanPreserved(t *testing.T) {
	src := rng.New(2)
	for _, m := range []float64{0.5, 1, 2, 8} {
		s := NakagamiGains{M: m}
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += s.SampleGain(3, src)
		}
		if got := sum / n; math.Abs(got-3)/3 > 0.03 {
			t.Fatalf("m=%g: sample mean %g, want 3", m, got)
		}
	}
}

// Nakagami m=1 is exactly Rayleigh: tail probabilities must agree.
func TestNakagamiOneMatchesRayleigh(t *testing.T) {
	src := rng.New(3)
	const n = 200000
	var above int
	s := NakagamiGains{M: 1}
	for i := 0; i < n; i++ {
		if s.SampleGain(2, src) > 2 {
			above++
		}
	}
	if got, want := float64(above)/n, math.Exp(-1); math.Abs(got-want) > 0.005 {
		t.Fatalf("P(X>mean) = %g, want e^-1 = %g", got, want)
	}
}

// Larger m concentrates the distribution: variance strictly shrinks.
func TestNakagamiVarianceDecreasesInM(t *testing.T) {
	src := rng.New(4)
	const n = 100000
	variance := func(m float64) float64 {
		s := NakagamiGains{M: m}
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := s.SampleGain(1, src)
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		return sumSq/n - mean*mean
	}
	v1, v4, v16 := variance(1), variance(4), variance(16)
	if !(v1 > v4 && v4 > v16) {
		t.Fatalf("variances not decreasing: m=1:%g m=4:%g m=16:%g", v1, v4, v16)
	}
	// Theoretical variance of Gamma(m, 1/m) is 1/m.
	if math.Abs(v4-0.25) > 0.02 {
		t.Fatalf("m=4 variance %g, want 0.25", v4)
	}
}

func TestNakagamiPanicsBelowHalf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NakagamiGains{M: 0.4}.SampleGain(1, rng.New(1))
}

func nkMatrix(t testing.TB, seed uint64, n int) *network.Matrix {
	t.Helper()
	cfg := network.Figure1Config()
	cfg.N = n
	net, err := network.Random(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net.Gains()
}

// SampleSINRsInto with RayleighGains and the Counter, Rayleigh's native
// success kernel, draw the same stream: from identical seeds the sampled
// SINRs that reach β are the Counter's successes, and both paths leave the
// stream at the same position.
func TestSampleSINRsWithRayleighMatchesNative(t *testing.T) {
	m := nkMatrix(t, 7, 10)
	active := make([]bool, m.N)
	for i := range active {
		active[i] = true
	}
	a, b := rng.New(9), rng.New(9)
	vals := SampleSINRsInto(m, active, RayleighGains{}, a, make([]float64, m.N), make([]int, 0, m.N))
	ok := make([]bool, m.N)
	NewCounter(m).Count(active, 2.5, b, ok)
	for i, v := range vals {
		if (v >= 2.5) != ok[i] {
			t.Fatalf("link %d: sampled SINR %g, Counter success %v", i, v, ok[i])
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("sampler and Counter consumed a different number of draws")
	}
}

// Nakagami interpolates between Rayleigh and non-fading: on a set that is
// feasible in the non-fading model, the success probability should rise
// with m toward 1.
func TestNakagamiInterpolatesTowardNonFading(t *testing.T) {
	// A solo link whose non-fading SINR is only 20% above the threshold:
	// S̄ = 1, ν = 1/3, β = 2.5 → γ_nf = 3 = 1.2β. The non-fading model
	// succeeds with certainty; Rayleigh succeeds with probability
	// exp(−βν/S̄) = exp(−5/6) ≈ 0.43; Nakagami-m must interpolate.
	m, err := network.NewMatrix([][]float64{{1}}, 1.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	active := []bool{true}
	src := rng.New(12)
	vals, idx := make([]float64, 1), make([]int, 0, 1)
	const samples = 40000
	probOf := func(sampler GainSampler) float64 {
		hits := 0
		for s := 0; s < samples; s++ {
			if SampleSINRsInto(m, active, sampler, src, vals, idx)[0] >= 2.5 {
				hits++
			}
		}
		return float64(hits) / samples
	}
	p1 := probOf(NakagamiGains{M: 1})
	p4 := probOf(NakagamiGains{M: 4})
	p16 := probOf(NakagamiGains{M: 16})
	p128 := probOf(NakagamiGains{M: 128})
	if want := math.Exp(-5.0 / 6.0); math.Abs(p1-want) > 0.01 {
		t.Fatalf("m=1 probability %g, want Rayleigh %g", p1, want)
	}
	if !(p1 < p4 && p4 < p16 && p16 < p128) {
		t.Fatalf("success probability not increasing in m: %g %g %g %g", p1, p4, p16, p128)
	}
	// Gaussian approximation: at m=128 the margin is ≈1.9σ, P ≈ 0.97.
	if p128 < 0.9 {
		t.Fatalf("m=128 success probability %g; should approach the non-fading certainty", p128)
	}
}

// Theorem 1 against Monte Carlo through the generic GainSampler path that
// the fading sweep and Scenario.SampleFadingSuccesses use.
func TestSuccessProbabilityWithMCMatchesTheorem1ForRayleigh(t *testing.T) {
	m := nkMatrix(t, 13, 8)
	src := rng.New(14)
	q := UniformProbs(m.N, 0.7)
	exact := ExactSuccess(m, q, 2.5, 3)
	const samples = 100000
	hits := 0
	active := make([]bool, m.N)
	vals, idx := make([]float64, m.N), make([]int, 0, m.N)
	for s := 0; s < samples; s++ {
		for k := range active {
			active[k] = src.Bernoulli(q[k])
		}
		if active[3] && SampleSINRsInto(m, active, RayleighGains{}, src, vals, idx)[3] >= 2.5 {
			hits++
		}
	}
	mc := float64(hits) / samples
	stdErr := math.Sqrt(mc * (1 - mc) / samples)
	if math.Abs(mc-exact) > 4*stdErr+1e-3 {
		t.Fatalf("MC %g ± %g vs exact %g", mc, stdErr, exact)
	}
}

// The expected success count of a fixed transmitting set, estimated through
// the generic sampler with Nakagami m = 1, matches Theorem 1's exact sum.
func TestExpectedSuccessesWithMC(t *testing.T) {
	m := nkMatrix(t, 15, 12)
	src := rng.New(16)
	active := make([]bool, m.N)
	for i := range active {
		active[i] = true
	}
	const samples = 20000
	vals, idx := make([]float64, m.N), make([]int, 0, m.N)
	var sum, sumSq float64
	for s := 0; s < samples; s++ {
		count := 0.0
		for _, v := range SampleSINRsInto(m, active, NakagamiGains{M: 1}, src, vals, idx) {
			if v >= 2.5 {
				count++
			}
		}
		sum += count
		sumSq += count * count
	}
	mean := sum / samples
	stdErr := math.Sqrt(math.Max(0, sumSq/samples-mean*mean) / samples)
	exact := ExpectedSuccessesExact(m, UniformProbs(m.N, 1), 2.5)
	if math.Abs(mean-exact) > 4*stdErr+1e-3 {
		t.Fatalf("MC %g ± %g vs exact %g", mean, stdErr, exact)
	}
}

func BenchmarkSampleSINRsNakagami100(b *testing.B) {
	cfg := network.Figure1Config()
	net, err := network.Random(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	m := net.Gains()
	src := rng.New(2)
	active := make([]bool, m.N)
	for i := range active {
		active[i] = i%2 == 0
	}
	sampler := NakagamiGains{M: 2}
	vals, idx := make([]float64, m.N), make([]int, 0, m.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleSINRsInto(m, active, sampler, src, vals, idx)
	}
}
