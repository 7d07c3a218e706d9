package latency

import (
	"context"
	"testing"

	"rayfade/internal/fading"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
	"rayfade/internal/transform"
)

func TestBackoffAlohaCompletesBothModels(t *testing.T) {
	net := fig1Net(t, 41, 60)
	m := net.Gains()
	src := rng.New(42)
	nf, _ := BackoffAloha(context.Background(), m, 2.5, DefaultBackoff, src, &NonFading{})
	if !nf.Done {
		t.Fatalf("non-fading backoff incomplete after %d slots", nf.Slots)
	}
	cfg := DefaultBackoff
	cfg.Repeats = transform.AlohaRepeats
	rl, _ := BackoffAloha(context.Background(), m, 2.5, cfg, src, NewRayleigh(fading.NewCounter(m), src))
	if !rl.Done {
		t.Fatalf("rayleigh backoff incomplete after %d slots", rl.Slots)
	}
	total := 0
	for _, c := range nf.PerSlotSuccesses {
		total += c
	}
	if total != m.N {
		t.Fatalf("first-time successes %d, want %d", total, m.N)
	}
}

// Backoff must rescue the pathological p=1 case that freezes the fixed
// protocol on dense instances: starting everyone at 1 still completes.
func TestBackoffRescuesFullProbabilityStart(t *testing.T) {
	net := fig1Net(t, 43, 80)
	m := net.Gains()
	cfg := BackoffConfig{Start: 1, Min: 0.02, Factor: 0.5, MaxSlots: 50000}
	res, _ := BackoffAloha(context.Background(), m, 2.5, cfg, rng.New(44), &NonFading{})
	if !res.Done {
		t.Fatalf("backoff from p=1 incomplete after %d slots", res.Slots)
	}
	fixed, _ := AlohaCtx(context.Background(), m, 2.5, AlohaConfig{Prob: 1, MaxSlots: 50000}, rng.New(44), &NonFading{})
	if fixed.Done && fixed.Slots <= res.Slots {
		t.Fatal("fixed p=1 unexpectedly matched backoff on a dense instance")
	}
}

func TestBackoffRespectsMaxSlots(t *testing.T) {
	net := fig1Net(t, 45, 20)
	net.Noise = 1e9
	m := net.Gains()
	cfg := DefaultBackoff
	cfg.MaxSlots = 64
	res, _ := BackoffAloha(context.Background(), m, 2.5, cfg, rng.New(46), &NonFading{})
	if res.Done || res.Slots != 64 {
		t.Fatalf("done=%v slots=%d", res.Done, res.Slots)
	}
}

func TestBackoffPanicsOnBadConfig(t *testing.T) {
	net := fig1Net(t, 1, 5)
	m := net.Gains()
	bad := []BackoffConfig{
		{Start: 0, Min: 0.01, Factor: 0.5},
		{Start: 1.5, Min: 0.01, Factor: 0.5},
		{Start: 0.5, Min: 0, Factor: 0.5},
		{Start: 0.5, Min: 0.9, Factor: 0.5},
		{Start: 0.5, Min: 0.01, Factor: 0},
		{Start: 0.5, Min: 0.01, Factor: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			BackoffAloha(context.Background(), m, 2.5, cfg, rng.New(1), &NonFading{})
		}()
	}
}

// On moderately dense instances, backoff should be competitive with a
// hand-tuned fixed probability (within a small factor on average).
func TestBackoffCompetitiveWithTunedFixed(t *testing.T) {
	net := fig1Net(t, 47, 60)
	m := net.Gains()
	var fixed, backoff stats.Running
	for trial := uint64(0); trial < 8; trial++ {
		f, _ := AlohaCtx(context.Background(), m, 2.5, AlohaConfig{Prob: 0.1, MaxSlots: 50000}, rng.New(100+trial), &NonFading{})
		b, _ := BackoffAloha(context.Background(), m, 2.5, DefaultBackoff, rng.New(200+trial), &NonFading{})
		if !f.Done || !b.Done {
			t.Fatal("a run did not complete")
		}
		fixed.Add(float64(f.Slots))
		backoff.Add(float64(b.Slots))
	}
	if backoff.Mean() > 5*fixed.Mean() {
		t.Fatalf("backoff %.1f slots vs tuned fixed %.1f — not competitive",
			backoff.Mean(), fixed.Mean())
	}
}

func BenchmarkBackoffAloha60(b *testing.B) {
	net := fig1Net(b, 1, 60)
	m := net.Gains()
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BackoffAloha(context.Background(), m, 2.5, DefaultBackoff, src, &NonFading{})
	}
}
