package fading

import (
	"fmt"
	"math"

	"rayfade/internal/network"
	"rayfade/internal/quad"
)

// ErrInfiniteRate reports an expected Shannon rate that diverges: with zero
// ambient noise there is positive probability that no interferer transmits,
// the SINR is then infinite, and so is E[log(1+γ)].
var ErrInfiniteRate = fmt.Errorf("fading: expected Shannon rate is infinite (zero noise and positive silence probability)")

// ExpectedShannonExact returns E[log(1+γ_i^R)] for link i under transmission
// probabilities q — the exact expected Shannon rate, with the expectation
// over both the random transmit set and the fading. It integrates the
// layer-cake identity
//
//	E[log(1+γ)] = ∫₀^∞ P(γ ≥ x) / (1+x) dx
//
// with Theorem 1 supplying P(γ ≥ x) in closed form and adaptive quadrature
// doing the rest: the deterministic replacement for Monte-Carlo rate
// estimation. tol ≤ 0 selects the quadrature default.
func ExpectedShannonExact(m *network.Matrix, q []float64, i int, tol float64) (float64, error) {
	checkProbs(m, q)
	if q[i] == 0 || m.Own(i) == 0 {
		return 0, nil
	}
	if m.Noise == 0 {
		// If with positive probability no interferer transmits (or none
		// has positive gain), the SINR is +∞ with that probability.
		silence := q[i]
		row := m.Incoming(i)
		for j := 0; j < m.N; j++ {
			if j != i && q[j] > 0 && row[j] > 0 {
				silence *= 1 - q[j]
			}
		}
		if silence > 0 {
			return math.Inf(1), ErrInfiniteRate
		}
	}
	integrand := func(x float64) float64 {
		if x <= 0 {
			return q[i] // Q_i(q, 0+) = q_i by continuity
		}
		return ExactSuccess(m, q, x, i) / (1 + x)
	}
	return quad.SemiInfinite(integrand, 0, tol)
}

// TotalShannonExact sums the exact expected Shannon rates of all links.
// A single diverging link makes the total infinite (with ErrInfiniteRate).
func TotalShannonExact(m *network.Matrix, q []float64, tol float64) (float64, error) {
	total := 0.0
	for i := 0; i < m.N; i++ {
		v, err := ExpectedShannonExact(m, q, i, tol)
		if err != nil {
			return math.Inf(1), err
		}
		total += v
	}
	return total, nil
}
