package fading

import (
	"fmt"
	"math"

	"rayfade/internal/network"
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

// NonFadingGains returns the mean deterministically; it exists so the same
// sampling code path can produce non-fading results in comparisons.
type NonFadingGains struct{}

// SampleGain implements GainSampler.
func (NonFadingGains) SampleGain(mean float64, _ *rng.Source) float64 { return mean }

// Name implements GainSampler.
func (NonFadingGains) Name() string { return "non-fading" }

// SampleSINRsWith draws one fading realization under an arbitrary fading
// model and returns per-link SINRs; inactive links report 0. With
// RayleighGains it matches SampleSINRsInto draw-for-draw. It allocates; hot
// loops should hold buffers and call SampleSINRsWithInto.
func SampleSINRsWith(m *network.Matrix, active []bool, sampler GainSampler, src *rng.Source) []float64 {
	return SampleSINRsWithInto(m, active, sampler, src, make([]float64, m.N), make([]int, 0, m.N))
}

// SampleSINRsWithInto is the allocation-free kernel behind SampleSINRsWith,
// following the SampleSINRsInto scratch convention: out must have length m.N,
// idx capacity at least m.N, and only active sender/receiver pairs are
// visited, in the same increasing index order as SampleSINRsWith has always
// drawn them.
func SampleSINRsWithInto(m *network.Matrix, active []bool, sampler GainSampler, src *rng.Source, out []float64, idx []int) []float64 {
	checkScratch(m.N, out, idx)
	idx = activeIndices(active, idx)
	for i := range out {
		out[i] = 0
	}
	for _, i := range idx {
		row := m.Incoming(i)
		interf := m.Noise
		var own float64
		for _, j := range idx {
			s := sampler.SampleGain(row[j], src)
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
