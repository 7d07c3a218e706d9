package sim

import (
	"math"
	"testing"

	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
)

// TestCountNonFadingMatchesValues pins countNonFadingInto to the count of
// links whose sinr.ValuesInto SINR reaches β, over densities from 0 to 1,
// matrices with zero gains, no noise with a lone sender (SINR +Inf) and
// thresholds 0, 2.5, +Inf and NaN.
func TestCountNonFadingMatchesValues(t *testing.T) {
	cfg := network.Figure1Config()
	cfg.N = 60
	net, err := network.Random(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	zeroed := net.Gains()
	for j := 0; j < zeroed.N; j += 3 {
		for i := 0; i < zeroed.N; i += 2 {
			zeroed.SetGain(j, i, 0)
		}
	}
	noiseless := net.Gains()
	noiseless.Noise = 0
	setup := rng.New(4)
	vals := make([]float64, cfg.N)
	idx := make([]int, 0, cfg.N)
	active := make([]bool, cfg.N)
	lone := make([]bool, cfg.N)
	lone[7] = true
	for _, m := range []*network.Matrix{net.Gains(), zeroed, noiseless} {
		for _, beta := range []float64{0, 2.5, math.Inf(1), math.NaN()} {
			check := func(active []bool) {
				t.Helper()
				want := 0
				for i, v := range sinr.ValuesInto(m, active, vals) {
					if active[i] && v >= beta {
						want++
					}
				}
				if got := countNonFadingInto(m, active, beta, idx); got != want {
					t.Fatalf("ν=%g β=%g active=%v: count %d, ValuesInto rule %d", m.Noise, beta, active, got, want)
				}
			}
			for d := 0; d <= 20; d++ {
				for trial := 0; trial < 5; trial++ {
					for i := range active {
						active[i] = setup.Bernoulli(float64(d) / 20)
					}
					check(active)
				}
			}
			check(lone)
		}
	}
	if got := countNonFadingInto(noiseless, lone, math.Inf(1), idx); got != 1 {
		t.Fatalf("a lone sender without noise: count %d at β = +Inf, want 1", got)
	}
}
