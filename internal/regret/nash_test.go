package regret

import (
	"testing"

	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// Best-response dynamics of the capacity game (Section 6) end in a pure
// Nash equilibrium, checked with IsPureNash.
func TestBestResponseDynamicsConverges(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		net := fig2Net(t, seed+100, 60)
		m := net.Gains()
		res := BestResponseDynamics(m, 0.5, 0)
		if !res.Converged {
			t.Fatalf("seed %d: no convergence in %d sweeps", seed, res.Sweeps)
		}
		if !IsPureNash(m, res.Profile, 0.5) {
			t.Fatalf("seed %d: converged profile is not a Nash equilibrium", seed)
		}
		if res.Senders == 0 {
			t.Fatalf("seed %d: all-idle equilibrium is implausible (solo links profit)", seed)
		}
		if res.ExpectedSuccesses <= 0 || res.ExpectedSuccesses > float64(res.Senders) {
			t.Fatalf("seed %d: expected successes %g for %d senders",
				seed, res.ExpectedSuccesses, res.Senders)
		}
	}
}

// At equilibrium every sender has conditional success probability > 1/2, so
// the expected successes exceed half the sender count.
func TestNashSendersSucceedOftenEnough(t *testing.T) {
	net := fig2Net(t, 7, 80)
	m := net.Gains()
	res := BestResponseDynamics(m, 0.5, 0)
	if !res.Converged {
		t.Skip("dynamics cycled on this instance")
	}
	if res.ExpectedSuccesses < float64(res.Senders)/2 {
		t.Fatalf("equilibrium successes %g below half of %d senders",
			res.ExpectedSuccesses, res.Senders)
	}
}

// The no-regret dynamics converge to throughput comparable with the Nash
// benchmark they generalize.
func TestNoRegretComparableToNash(t *testing.T) {
	net := fig2Net(t, 11, 80)
	m := net.Gains()
	nash := BestResponseDynamics(m, 0.5, 0)
	h := NewGame(m, 0.5, Rayleigh, rng.New(7)).Run(200)
	learned := h.AverageSuccesses(60)
	if !nash.Converged {
		t.Skip("dynamics cycled on this instance")
	}
	if learned < nash.ExpectedSuccesses/4 {
		t.Fatalf("no-regret throughput %.1f far below Nash benchmark %.1f",
			learned, nash.ExpectedSuccesses)
	}
}

func TestIsPureNashDetectsDeviation(t *testing.T) {
	net := fig2Net(t, 13, 30)
	m := net.Gains()
	res := BestResponseDynamics(m, 0.5, 0)
	if !res.Converged {
		t.Skip("dynamics cycled on this instance")
	}
	// Flip one sender off (or one idler on): the profile must stop being
	// an equilibrium for at least one of the flips.
	broken := 0
	for i := range res.Profile {
		mod := append([]bool(nil), res.Profile...)
		mod[i] = !mod[i]
		if !IsPureNash(m, mod, 0.5) {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("every single-link flip kept the profile in equilibrium")
	}
}

func TestIsPureNashPanicsOnShape(t *testing.T) {
	net := fig2Net(t, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	IsPureNash(net.Gains(), []bool{true}, 0.5)
}

func TestBestResponseDynamicsPanicsOnBeta(t *testing.T) {
	net := fig2Net(t, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BestResponseDynamics(net.Gains(), 0, 0)
}

// A lone viable link must transmit at equilibrium.
func TestNashSingleLink(t *testing.T) {
	m, err := network.NewMatrix([][]float64{{1}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res := BestResponseDynamics(m, 0.5, 0)
	if !res.Converged || res.Senders != 1 {
		t.Fatalf("solo link: converged=%v senders=%d", res.Converged, res.Senders)
	}
}

func BenchmarkBestResponseDynamics100(b *testing.B) {
	cfg := network.Figure2Config()
	cfg.N = 100
	net, err := network.Random(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	m := net.Gains()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BestResponseDynamics(m, 0.5, 0)
	}
}
