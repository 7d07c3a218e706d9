// Package fading implements the Rayleigh-fading interference model of the
// paper's Sections 2 and 3.
//
// Under Rayleigh fading, the strength of sender j's signal at receiver i is
// an exponentially distributed random variable S(j,i) with mean S̄(j,i),
// independent across pairs and time slots. The SINR of link i is
//
//	γ_i^R = S(i,i) / (Σ_{j ≠ i, transmitting} S(j,i) + ν).
//
// The central analytic tool is Theorem 1: with each sender j transmitting
// independently with probability q_j, the probability that link i reaches
// SINR β has the closed form
//
//	Q_i(q,β) = q_i · exp(−βν/S̄(i,i)) · Π_{j≠i} (1 − β·q_j/(β + S̄(i,i)/S̄(j,i))).
//
// Lemma 1 sandwiches Q_i between two exponential bounds that drive the
// paper's reduction. This package provides the exact form, both bounds, the
// inequalities of Observation 1 they rest on, and exact/sampled
// expected-utility evaluation. Realizations are drawn two ways: a Counter
// decides Rayleigh successes against β, and SampleSINRsInto, the one loop
// that realizes SINRs, draws every received power through a GainSampler —
// RayleighGains for the paper's model, NakagamiGains for the sweep beyond it.
package fading

import (
	"fmt"
	"math"

	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/utility"
)

// checkProbs panics if q is not a vector of m.N probabilities.
func checkProbs(m *network.Matrix, q []float64) {
	if len(q) != m.N {
		panic(fmt.Sprintf("fading: %d probabilities for %d links", len(q), m.N))
	}
	for i, p := range q {
		if p < 0 || p > 1 || math.IsNaN(p) {
			panic(fmt.Sprintf("fading: q[%d] = %g is not a probability", i, p))
		}
	}
}

// ExactSuccess returns Q_i(q,β), the Theorem-1 probability that receiver i
// gets its signal with SINR at least β > 0 when every sender j transmits
// independently with probability q[j].
//
// Edge cases follow the model: a link with zero expected own-signal
// strength never succeeds; an interferer with zero gain at receiver i
// contributes a factor of 1.
func ExactSuccess(m *network.Matrix, q []float64, beta float64, i int) float64 {
	checkProbs(m, q)
	if beta <= 0 {
		panic(fmt.Sprintf("fading: threshold β = %g must be positive", beta))
	}
	if q[i] == 0 {
		return 0
	}
	sii := m.Own(i)
	if sii == 0 {
		return 0
	}
	row := m.Incoming(i)
	p := q[i] * math.Exp(-beta*m.Noise/sii)
	for j := 0; j < m.N; j++ {
		if j == i || q[j] == 0 {
			continue
		}
		sji := row[j]
		if sji == 0 {
			continue
		}
		p *= 1 - beta*q[j]/(beta+sii/sji)
	}
	return p
}

// ExactSuccessEnumerated computes Q_i(q,β) by the proof's own route rather
// than the product formula: it enumerates every subset S of potential
// interferers, weighs it by Π_{j∈S} q_j · Π_{j∉S} (1−q_j), and multiplies
// the conditional success probability
//
//	P(γ_i ≥ β | S transmits) = exp(−βν/S̄(i,i)) · Π_{j∈S} 1/(1 + β·S̄(j,i)/S̄(i,i)),
//
// which follows from conditioning on the interferers' exponential draws
// (the appendix argument behind Theorem 1). It is an O(2^n) reference
// implementation and panics for n > 25. It has no production caller; it
// stays as the Theorem-1 oracle that TestExactSuccessMatchesEnumeration
// checks ExactSuccess against through a completely different derivation.
func ExactSuccessEnumerated(m *network.Matrix, q []float64, beta float64, i int) float64 {
	checkProbs(m, q)
	if beta <= 0 {
		panic(fmt.Sprintf("fading: threshold β = %g must be positive", beta))
	}
	if m.N > 25 {
		panic(fmt.Sprintf("fading: enumeration limited to n ≤ 25, got %d", m.N))
	}
	if q[i] == 0 || m.Own(i) == 0 {
		return 0
	}
	sii := m.Own(i)
	row := m.Incoming(i)
	// Collect the interferers that can actually transmit and interfere.
	var others []int
	for j := 0; j < m.N; j++ {
		if j != i && q[j] > 0 && row[j] > 0 {
			others = append(others, j)
		}
	}
	baseline := q[i] * math.Exp(-beta*m.Noise/sii)
	total := 0.0
	for mask := 0; mask < 1<<len(others); mask++ {
		weight := 1.0
		cond := 1.0
		for b, j := range others {
			if mask&(1<<b) != 0 {
				weight *= q[j]
				cond *= 1 / (1 + beta*row[j]/sii)
			} else {
				weight *= 1 - q[j]
			}
		}
		total += weight * cond
	}
	return baseline * total
}

// LowerBound returns the Lemma-1 lower bound on Q_i(q,β):
//
//	q_i · exp(−(β/S̄(i,i)) · (ν + Σ_{j≠i} S̄(j,i)·q_j)).
func LowerBound(m *network.Matrix, q []float64, beta float64, i int) float64 {
	checkProbs(m, q)
	sii := m.Own(i)
	if q[i] == 0 {
		return 0
	}
	if sii == 0 {
		return 0
	}
	row := m.Incoming(i)
	sum := m.Noise
	for j := 0; j < m.N; j++ {
		if j != i {
			sum += row[j] * q[j]
		}
	}
	return q[i] * math.Exp(-beta*sum/sii)
}

// UpperBound returns the Lemma-1 upper bound on Q_i(q,β):
//
//	q_i · exp(−βν/S̄(i,i) − Σ_{j≠i} min{1/2, β·S̄(j,i)/(2·S̄(i,i))}·q_j).
func UpperBound(m *network.Matrix, q []float64, beta float64, i int) float64 {
	checkProbs(m, q)
	sii := m.Own(i)
	if q[i] == 0 {
		return 0
	}
	if sii == 0 {
		return 0
	}
	row := m.Incoming(i)
	expo := -beta * m.Noise / sii
	for j := 0; j < m.N; j++ {
		if j == i {
			continue
		}
		expo -= math.Min(0.5, beta*row[j]/(2*sii)) * q[j]
	}
	return q[i] * math.Exp(expo)
}

// Observation1Upper is the first inequality of Observation 1:
// exp(−xq) ≤ 1 − q/(1/x + 1) for all real x ≥ 0 and q ∈ [0,1].
// It has no production caller; it stays because it states Observation 1,
// the analytic backbone of Lemma 1 (TestObservation1Upper, FuzzObservation1).
func Observation1Upper(x, q float64) (lhs, rhs float64) {
	return math.Exp(-x * q), 1 - q/(1/x+1)
}

// Observation1Lower is the second inequality of Observation 1:
// 1 − q/(1/x + 1) ≤ exp(−xq/2) for x ∈ (0,1], q ∈ [0,1]. It has no
// production caller; it stays because it states Observation 1
// (TestObservation1Lower, FuzzObservation1).
func Observation1Lower(x, q float64) (lhs, rhs float64) {
	return 1 - q/(1/x+1), math.Exp(-x * q / 2)
}

// ExpectedSuccessesExact returns E[#links with SINR ≥ β] = Σ_i Q_i(q,β),
// the exact expected number of successful transmissions under Rayleigh
// fading for the given transmission probabilities — the y-axis of the
// paper's Figure 1 for the fading curves.
func ExpectedSuccessesExact(m *network.Matrix, q []float64, beta float64) float64 {
	total := 0.0
	for i := 0; i < m.N; i++ {
		total += ExactSuccess(m, q, beta, i)
	}
	return total
}

// ExpectedBinaryValueOfSet returns Σ_{i∈set} Q_i(1_set, β): the exact
// expected number of successes when exactly the links of set transmit —
// the Rayleigh-side value of a transferred non-fading solution (Lemma 2).
func ExpectedBinaryValueOfSet(m *network.Matrix, set []int, beta float64) float64 {
	q := make([]float64, m.N)
	for _, i := range set {
		q[i] = 1
	}
	total := 0.0
	for _, i := range set {
		total += ExactSuccess(m, q, beta, i)
	}
	return total
}

// checkScratch panics unless out and idx can serve as kernel scratch for an
// n-link matrix without growing.
func checkScratch(n int, out []float64, idx []int) {
	if len(out) != n {
		panic(fmt.Sprintf("fading: SINR buffer length %d for %d links", len(out), n))
	}
	if cap(idx) < n {
		panic(fmt.Sprintf("fading: index scratch capacity %d for %d links", cap(idx), n))
	}
}

// SampleSINRsInto draws one fading realization into out and returns it: for
// each active link i, every active sender's strength at receiver i is
// sampler's draw for mean S̄(j,i), in increasing (receiver, sender) order,
// and out[i] is the realized SINR; inactive links report 0. It is the one
// SINR-realization loop: RayleighGains gives the paper's model, whose
// draws a Counter consumes identically when only a success test against β
// is wanted, and NakagamiGains the sweep's. The caller owns the scratch:
// out must have length m.N and idx capacity at least m.N; both may be
// reused across calls. One realization costs O(a²) draws for a active links
// plus an O(n) clear of out.
func SampleSINRsInto(m *network.Matrix, active []bool, sampler GainSampler, src *rng.Source, out []float64, idx []int) []float64 {
	checkScratch(m.N, out, idx)
	idx = sinr.ActiveList(active, idx)
	for i := range out {
		out[i] = 0
	}
	// Receiver-major layout: the inner loop reads row = Incoming(i)
	// contiguously at the active sender indices, in the same (i, j) order the
	// stream has always been consumed — cache-linear with identical draws.
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

// CountSuccesses is Counter.Count over the caller's scratch and without a
// head: every receiver gets the straight index-order sum. out
// (length m.N) holds the uniforms and idx (capacity at least m.N) the active
// links; their contents on return are unspecified. It needs no set-up per
// call, but code that counts many realizations of one matrix should hold a
// Counter. It remains for the benchmark harness in benchsuite/, which calls
// it by name.
func CountSuccesses(m *network.Matrix, active []bool, beta float64, src *rng.Source, out []float64, idx []int) int {
	checkScratch(m.N, out, idx)
	c := Counter{plan: plan{m: m}, u: out, idx: idx}
	return c.Count(active, beta, src, nil)
}

// MCResult is a Monte-Carlo estimate with its standard error.
type MCResult struct {
	Mean   float64
	StdErr float64
	N      int
}

// MCSum accumulates Monte-Carlo samples into an MCResult; the zero value
// holds none.
type MCSum struct {
	sum, sumSq float64
	n          int
}

// Add records one sample.
func (a *MCSum) Add(v float64) {
	a.sum += v
	a.sumSq += v * v
	a.n++
}

// Result returns the samples' mean and its standard error, √(var/n) with
// the variance taken as the mean square less the squared mean, clamped at 0.
func (a *MCSum) Result() MCResult {
	n := float64(a.n)
	mean := a.sum / n
	variance := max(a.sumSq/n-mean*mean, 0)
	return MCResult{Mean: mean, StdErr: math.Sqrt(variance / n), N: a.n}
}

// ExpectedUtilityMC estimates E[Σ_i u_i(γ_i^R)] for the transmission
// probability vector q by Monte-Carlo: each sample independently draws the
// transmitting set from q and a fading realization, then evaluates the
// utilities. us follows the utility.Sum convention (length 1 broadcasts).
//
// For binary utilities, ExpectedSuccessesExact gives the same quantity in
// closed form; the Monte-Carlo path exists for general utilities (e.g.
// Shannon), whose expectation has no simple closed form, and as an
// independent check of Theorem 1 in tests.
func ExpectedUtilityMC(m *network.Matrix, q []float64, us []utility.Func, samples int, src *rng.Source) MCResult {
	checkProbs(m, q)
	if samples <= 0 {
		panic(fmt.Sprintf("fading: %d samples", samples))
	}
	var acc MCSum
	active := make([]bool, m.N)
	vals := make([]float64, m.N)
	idx := make([]int, 0, m.N)
	for s := 0; s < samples; s++ {
		for i := range active {
			active[i] = src.Bernoulli(q[i])
		}
		SampleSINRsInto(m, active, RayleighGains{}, src, vals, idx)
		acc.Add(utility.Sum(us, vals))
	}
	return acc.Result()
}

// SuccessProbabilityMC estimates Q_i(q,β) by Monte-Carlo, for validating
// the closed form of Theorem 1.
func SuccessProbabilityMC(m *network.Matrix, q []float64, beta float64, i int, samples int, src *rng.Source) MCResult {
	checkProbs(m, q)
	if samples <= 0 {
		panic(fmt.Sprintf("fading: %d samples", samples))
	}
	hits := 0
	active, ok := make([]bool, m.N), make([]bool, m.N)
	c := NewCounter(m)
	for s := 0; s < samples; s++ {
		for k := range active {
			active[k] = src.Bernoulli(q[k])
		}
		if !active[i] {
			continue
		}
		c.Count(active, beta, src, ok)
		if ok[i] {
			hits++
		}
	}
	p := float64(hits) / float64(samples)
	return MCResult{
		Mean:   p,
		StdErr: math.Sqrt(p * (1 - p) / float64(samples)),
		N:      samples,
	}
}

// UniformProbs returns the probability vector assigning p to all n links.
func UniformProbs(n int, p float64) []float64 {
	q := make([]float64, n)
	for i := range q {
		q[i] = p
	}
	return q
}
