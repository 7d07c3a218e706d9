package fading

import (
	"errors"
	"math"
	"testing"

	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/utility"
)

// The Rayleigh outage curve of one link, Theorem 1's Q_i as a function of
// β, is non-increasing and starts no higher than the transmit probability.
func TestOutageCurveMonotone(t *testing.T) {
	m := randomMatrix(t, 71, 15)
	q := UniformProbs(m.N, 0.6)
	prev := q[3]
	for _, beta := range []float64{0.1, 0.5, 1, 2.5, 5, 10, 50} {
		p := ExactSuccess(m, q, beta, 3)
		if p > prev+1e-15 {
			t.Fatalf("outage curve rose to %g at β = %g (previous point %g)", p, beta, prev)
		}
		prev = p
	}
}

// Solo link with noise: γ is exponential with mean μ = S̄/ν, and the known
// closed form is E[log(1+γ)] = e^{1/μ}·E₁(1/μ). At μ = 1 that is
// 0.596347362323194; the transmit probability scales it linearly.
func TestExpectedShannonExactSoloClosedForm(t *testing.T) {
	m := mat(t, [][]float64{{2}}, 2) // μ = 1
	got, err := ExpectedShannonExact(m, []float64{1}, 0, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.596347362323194
	if math.Abs(got-want) > 1e-7 {
		t.Fatalf("solo rate %.10f, want %.10f", got, want)
	}
	half, err := ExpectedShannonExact(m, []float64{0.5}, 0, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half-want/2) > 1e-7 {
		t.Fatalf("q=0.5 rate %.10f, want %.10f", half, want/2)
	}
}

func TestExpectedShannonExactMatchesMC(t *testing.T) {
	m := randomMatrix(t, 73, 10)
	src := rng.New(74)
	q := UniformProbs(m.N, 0.5)
	exact, err := TotalShannonExact(m, q, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	mc := ExpectedUtilityMC(m, q, utility.Uniform(utility.Shannon{}), 60000, src)
	if math.Abs(mc.Mean-exact) > 5*mc.StdErr+0.02*exact {
		t.Fatalf("MC %g ± %g vs exact %g", mc.Mean, mc.StdErr, exact)
	}
}

func TestExpectedShannonExactZeroCases(t *testing.T) {
	m := mat(t, [][]float64{{1, 0}, {0, 1}}, 0.5)
	v, err := ExpectedShannonExact(m, []float64{0, 1}, 0, 0)
	if err != nil || v != 0 {
		t.Fatalf("silent link rate %g, %v", v, err)
	}
	zeroGain := mat(t, [][]float64{{0, 0}, {0, 1}}, 0.5)
	v, err = ExpectedShannonExact(zeroGain, []float64{1, 1}, 0, 0)
	if err != nil || v != 0 {
		t.Fatalf("zero-gain rate %g, %v", v, err)
	}
}

func TestExpectedShannonExactInfiniteAtZeroNoise(t *testing.T) {
	// ν = 0 and q < 1 interferers: positive silence probability ⇒ ∞.
	m := mat(t, [][]float64{{1, 0.5}, {0.5, 1}}, 0)
	v, err := ExpectedShannonExact(m, []float64{1, 0.5}, 0, 0)
	if !errors.Is(err, ErrInfiniteRate) || !math.IsInf(v, 1) {
		t.Fatalf("expected infinite rate, got %g, %v", v, err)
	}
	// But with the interferer always on (q = 1), the SINR is a.s. finite
	// and so is the rate.
	v, err = ExpectedShannonExact(m, []float64{1, 1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(v, 1) || v <= 0 {
		t.Fatalf("always-on interferer rate %g", v)
	}
	if _, err := TotalShannonExact(m, []float64{1, 0.5}, 0); !errors.Is(err, ErrInfiniteRate) {
		t.Fatal("total did not propagate divergence")
	}
}

// The exact rate decreases when an interferer's transmission probability
// rises — the rate counterpart of the Q_i monotonicity.
func TestExpectedShannonExactMonotoneInInterference(t *testing.T) {
	m := randomMatrix(t, 75, 8)
	q := UniformProbs(m.N, 0.3)
	base, err := ExpectedShannonExact(m, q, 2, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	q2 := append([]float64(nil), q...)
	for j := range q2 {
		if j != 2 {
			q2[j] = 0.9
		}
	}
	loud, err := ExpectedShannonExact(m, q2, 2, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if loud >= base {
		t.Fatalf("rate rose with interference: %g → %g", base, loud)
	}
}

func BenchmarkExpectedShannonExact20(b *testing.B) {
	cfg := network.Figure1Config()
	cfg.N = 20
	net, err := network.Random(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	m := net.Gains()
	q := UniformProbs(m.N, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExpectedShannonExact(m, q, i%m.N, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}
