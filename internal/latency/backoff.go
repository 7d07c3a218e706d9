package latency

import (
	"context"
	"fmt"

	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// BackoffConfig parameterizes the adaptive variant of the distributed
// contention protocol: links halve (or scale by Factor) their transmission
// probability after a failed attempt — classic exponential backoff — and
// keep it on success attempts of others. Compared to the fixed-probability
// protocol, backoff self-tunes to the local contention level and removes
// the need to guess a good global probability.
type BackoffConfig struct {
	// Start is the initial per-link transmission probability (0,1].
	Start float64
	// Min floors the probability so a link never silences itself forever.
	Min float64
	// Factor in (0,1) multiplies a link's probability after it transmits
	// and fails.
	Factor float64
	// MaxSlots aborts the run; 0 means 256·n slots.
	MaxSlots int
	// Repeats executes each randomized step this many times under a
	// stochastic model (the Section-4 transformation).
	Repeats int
}

// DefaultBackoff is a reasonable configuration for Figure-1-like densities.
var DefaultBackoff = BackoffConfig{Start: 0.5, Min: 0.01, Factor: 0.5}

// BackoffAloha runs the adaptive protocol: every unserved link transmits
// with its own current probability; a transmitting link that fails scales
// its probability by Factor (floored at Min); a link that succeeds drops
// out. The same code serves both interference models via the SuccessModel.
//
// ctx is polled once per randomized step, and the partial result
// (Done == false) is returned with ctx.Err() when cancelled.
func BackoffAloha(ctx context.Context, m *network.Matrix, beta float64, cfg BackoffConfig, src *rng.Source, model SuccessModel) (AlohaResult, error) {
	if cfg.Start <= 0 || cfg.Start > 1 {
		panic(fmt.Sprintf("latency: backoff start probability %g outside (0,1]", cfg.Start))
	}
	if cfg.Min <= 0 || cfg.Min > cfg.Start {
		panic(fmt.Sprintf("latency: backoff floor %g outside (0,%g]", cfg.Min, cfg.Start))
	}
	if cfg.Factor <= 0 || cfg.Factor >= 1 {
		panic(fmt.Sprintf("latency: backoff factor %g outside (0,1)", cfg.Factor))
	}
	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		maxSlots = 256 * m.N
	}
	probs := make([]float64, m.N)
	for i := range probs {
		probs[i] = cfg.Start
	}
	return contend(ctx, "latency.backoff_aloha", m, beta, probs, cfg.Repeats, maxSlots, src, model, func(active []bool) {
		for i, failed := range active {
			if failed {
				probs[i] *= cfg.Factor
				if probs[i] < cfg.Min {
					probs[i] = cfg.Min
				}
			}
		}
	})
}
