package transform

// The Theorem-2 and Section-4 quantities below have no caller outside
// tests: the experiments pick the best single step with BestStepCtx and
// repeat slots with ExpandSchedule. The tests use them to state the claims
// those choices rest on.

import (
	"fmt"
	"math"

	"rayfade/internal/fading"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/utility"
)

// RepeatedSuccessProbability returns 1 − (1 − p/e)^r: the probability that
// at least one of r independent Rayleigh executions of a non-fading step
// with success probability p reaches the threshold, using the Lemma-1
// guarantee that each execution succeeds with probability at least p/e.
// TestFourRepeatsSufficeForHalf states with it why AlohaRepeats = 4
// repetitions cover every p ≤ 1/2.
func RepeatedSuccessProbability(p float64, r int) float64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("transform: success probability %g outside [0,1]", p))
	}
	if r <= 0 {
		panic(fmt.Sprintf("transform: repeat count %d must be positive", r))
	}
	return 1 - math.Pow(1-p*LossFactor, float64(r))
}

// RunScheduleOnce samples one full execution of the schedule in the
// non-fading model and returns, per link, the maximum SINR the link achieved
// over all attempts of all steps (max_t γ_i^{nf,t} in the proof of
// Theorem 2). Links that never transmitted report 0.
func RunScheduleOnce(m *network.Matrix, steps []Step, src *rng.Source) []float64 {
	best := make([]float64, m.N)
	active := make([]bool, m.N)
	for _, step := range steps {
		if len(step.Probs) != m.N {
			panic(fmt.Sprintf("transform: step has %d probabilities for %d links", len(step.Probs), m.N))
		}
		for rep := 0; rep < step.Repeats; rep++ {
			for i := range active {
				active[i] = src.Bernoulli(step.Probs[i])
			}
			vals := sinr.Values(m, active)
			for i, v := range vals {
				if v > best[i] {
					best[i] = v
				}
			}
		}
	}
	return best
}

// SimulationValueMC estimates E[Σ_i u_i(max_t γ_i^{nf,t})], the total
// utility of the simulation when every link keeps the best of its attempts.
// This is the quantity the proof of Theorem 2 lower-bounds against the
// Rayleigh expectation; TestTheorem2SimulationDominates states Theorem 2's
// transfer with it.
func SimulationValueMC(m *network.Matrix, steps []Step, us []utility.Func, samples int, src *rng.Source) fading.MCResult {
	if samples <= 0 {
		panic(fmt.Sprintf("transform: %d samples", samples))
	}
	var acc fading.MCSum
	for s := 0; s < samples; s++ {
		acc.Add(utility.Sum(us, RunScheduleOnce(m, steps, src)))
	}
	return acc.Result()
}
