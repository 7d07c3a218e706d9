package fading

import (
	"fmt"

	"rayfade/internal/rng"
)

// GainSampler draws a random received power for a given expected power.
// It abstracts the fading distribution so the scheduling and simulation
// layers can be exercised under fading models beyond Rayleigh — the
// direction the paper's discussion section raises ("interference models
// capturing further realistic properties").
type GainSampler interface {
	// SampleGain draws one received power with the given mean. A mean of
	// zero must return zero.
	SampleGain(mean float64, src *rng.Source) float64
	// Name identifies the fading model in experiment output.
	Name() string
}

// RayleighGains is the paper's model: received power is exponential with
// the given mean (a Rayleigh-distributed amplitude).
type RayleighGains struct{}

// SampleGain implements GainSampler.
func (RayleighGains) SampleGain(mean float64, src *rng.Source) float64 {
	return src.Exp(mean)
}

// Name implements GainSampler.
func (RayleighGains) Name() string { return "rayleigh" }

// NakagamiGains models Nakagami-m fading: the received power follows a
// Gamma distribution with shape M and the given mean (scale mean/M).
// M = 1 recovers Rayleigh fading exactly; larger M means milder fading
// (power concentrates around the mean), M → ∞ approaches the non-fading
// model. M ≥ 0.5 per the Nakagami parameterization.
type NakagamiGains struct{ M float64 }

// SampleGain implements GainSampler.
func (n NakagamiGains) SampleGain(mean float64, src *rng.Source) float64 {
	if n.M < 0.5 {
		panic(fmt.Sprintf("fading: Nakagami shape m = %g below 0.5", n.M))
	}
	if mean == 0 {
		return 0
	}
	return src.Gamma(n.M, mean/n.M)
}

// Name implements GainSampler.
func (n NakagamiGains) Name() string { return fmt.Sprintf("nakagami(m=%g)", n.M) }
