// Package transform implements the paper's primary contribution: the generic
// reduction between the non-fading SINR model and the Rayleigh-fading model
// (Sections 4 and 5).
//
// Three mechanisms make up the reduction:
//
//  1. Black-box solution transfer (Lemma 2). Any solution computed for the
//     non-fading model — the same senders, the same powers — retains, in
//     expectation under Rayleigh fading, at least a 1/e fraction of its
//     non-fading utility.
//
//  2. ALOHA repetition (Section 4). A randomized protocol step that succeeds
//     with probability p ≤ 1/2 in the non-fading model succeeds at least as
//     well under Rayleigh fading when executed 4 times independently:
//     1 − (1 − p/e)⁴ ≥ p.
//
//  3. Optimum simulation (Algorithm 1 / Theorem 2). Any Rayleigh-fading
//     transmission-probability assignment q can be simulated by O(log* n)
//     non-fading steps with scaled probabilities q/(4·b_k) along the tower
//     b_0 = 1/4, b_{k+1} = exp(b_k/2), each repeated 19 times; the best
//     single step loses only a constant factor, so the Rayleigh optimum is
//     at most O(log* n) above the non-fading optimum.
//
// Together, 1 and 3 convert any ρ-approximation for non-fading capacity
// maximization into an O(ρ·log* n)-approximation under Rayleigh fading,
// which is how every algorithm in internal/capacity acquires its fading
// guarantee.
package transform

import (
	"context"
	"fmt"
	"math"

	"rayfade/internal/fading"
	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/utility"
)

// LossFactor is the guaranteed retention of Lemma 2: a transferred solution
// keeps at least a 1/e fraction of its non-fading utility in expectation.
const LossFactor = 1 / math.E

// AlohaRepeats is the repetition count of the Section-4 latency
// transformation: 4 independent executions per randomized step suffice for
// success probabilities up to 1/2.
const AlohaRepeats = 4

// ScheduleRepeats is the per-level repetition count of Algorithm 1.
const ScheduleRepeats = 19

// TransferReport describes the outcome of transferring a non-fading
// solution set into the Rayleigh model (Lemma 2).
type TransferReport struct {
	// Set is the transmitting set (unchanged by the transfer).
	Set []int
	// NonFadingValue is Σ_{i∈Set} u_i(γ_i^nf) with exactly Set transmitting.
	NonFadingValue float64
	// GuaranteedValue is the Lemma-2 lower bound NonFadingValue/e on the
	// expected Rayleigh utility.
	GuaranteedValue float64
	// PerLinkSINR are the non-fading SINRs γ_i^nf of the set's links,
	// indexed like Set.
	PerLinkSINR []float64
}

// Transfer applies Lemma 2: it evaluates the non-fading value of the set and
// returns the guarantee that the very same set, transmitted under Rayleigh
// fading with unchanged powers, retains at least a 1/e fraction in
// expectation. us follows the utility.Sum convention.
func Transfer(m *network.Matrix, set []int, us []utility.Func) TransferReport {
	active := sinr.SetToActive(m.N, set)
	vals := sinr.Values(m, active)
	perLink := make([]float64, len(set))
	for k, i := range set {
		perLink[k] = vals[i]
	}
	value := utility.Sum(us, vals)
	return TransferReport{
		Set:             append([]int(nil), set...),
		NonFadingValue:  value,
		GuaranteedValue: value * LossFactor,
		PerLinkSINR:     perLink,
	}
}

// Step is one level of the Algorithm-1 simulation: every sender transmits
// with probability Probs[i] in each of Repeats independent non-fading slots.
type Step struct {
	// Level is the tower index k of the step.
	Level int
	// B is the tower value b_k the step's probabilities were scaled by.
	B float64
	// Probs are the per-link transmission probabilities q_i / (4·b_k).
	Probs []float64
	// Repeats is the number of independent attempts at this level (19 in
	// the paper).
	Repeats int
}

// Slots returns the number of non-fading time slots the step occupies.
func (s Step) Slots() int { return s.Repeats }

// Schedule builds the Algorithm-1 simulation schedule for the Rayleigh
// transmission-probability vector q: one step per tower level k with
// b_k < n, using probabilities q/(4·b_k) and the given per-level repeat
// count (pass ScheduleRepeats for the paper's constant). The total number
// of steps is Θ(log* n) — tiny for any realistic n.
func Schedule(q []float64, repeats int) []Step {
	if repeats <= 0 {
		panic(fmt.Sprintf("transform: repeats = %d must be positive", repeats))
	}
	n := len(q)
	if n == 0 {
		return nil
	}
	for i, p := range q {
		if p < 0 || p > 1 || math.IsNaN(p) {
			panic(fmt.Sprintf("transform: q[%d] = %g is not a probability", i, p))
		}
	}
	var steps []Step
	b := 0.25
	for level := 0; b < float64(n); level++ {
		probs := make([]float64, n)
		for i, p := range q {
			probs[i] = p / (4 * b)
			if probs[i] > 1 { // cannot happen for b ≥ 1/4, but keep the invariant local
				probs[i] = 1
			}
		}
		steps = append(steps, Step{Level: level, B: b, Probs: probs, Repeats: repeats})
		b = math.Exp(b / 2)
		if level > 128 {
			panic("transform: tower failed to converge")
		}
	}
	return steps
}

// TotalSlots returns the number of non-fading slots the schedule occupies —
// the O(log* n) blow-up of Theorem 2's latency corollary.
func TotalSlots(steps []Step) int {
	total := 0
	for _, s := range steps {
		total += s.Slots()
	}
	return total
}

// StepValue is the estimated value of a single simulation step.
type StepValue struct {
	Step  Step
	Value fading.MCResult
}

// BestStepCtx estimates, for each step of the schedule, the expected
// non-fading utility of a single slot played with that step's
// probabilities, and returns the best step. Theorem 2 concludes by picking
// exactly this step: the best single non-fading probability assignment is
// within a constant of the whole simulation, hence within O(log* n) of the
// Rayleigh optimum.
//
// ctx is polled once per Monte-Carlo sample, and ctx.Err() is returned
// (with zero-valued best and nil all) when cancelled — a partially sampled
// step comparison would not be a meaningful estimate.
func BestStepCtx(ctx context.Context, m *network.Matrix, steps []Step, us []utility.Func, samplesPerStep int, src *rng.Source) (best StepValue, all []StepValue, err error) {
	if len(steps) == 0 {
		panic("transform: empty schedule")
	}
	if samplesPerStep <= 0 {
		panic(fmt.Sprintf("transform: %d samples per step", samplesPerStep))
	}
	ctx, sp := obs.StartDetached(ctx, "transform.best_step")
	sp.SetAttr("steps", len(steps))
	sp.SetAttr("samples_per_step", samplesPerStep)
	defer sp.End()
	all = make([]StepValue, len(steps))
	active := make([]bool, m.N)
	for k, step := range steps {
		var acc fading.MCSum
		for s := 0; s < samplesPerStep; s++ {
			if err := ctx.Err(); err != nil {
				return StepValue{}, nil, err
			}
			for i := range active {
				active[i] = src.Bernoulli(step.Probs[i])
			}
			acc.Add(utility.Sum(us, sinr.Values(m, active)))
		}
		all[k] = StepValue{Step: step, Value: acc.Result()}
	}
	best = all[0]
	for _, sv := range all[1:] {
		if sv.Value.Mean > best.Value.Mean {
			best = sv
		}
	}
	return best, all, nil
}

// ExpandSchedule converts a non-fading latency schedule (one transmitting
// set per slot) into its Rayleigh-ready form by repeating every slot
// `repeats` times — the Section-4 transformation for algorithms built from
// repeated single-slot maximization. The guarantee: a slot whose links all
// succeed in the non-fading model gives each of those links at least a
// 1 − (1 − 1/e)^repeats chance under Rayleigh fading.
func ExpandSchedule(slots [][]int, repeats int) [][]int {
	if repeats <= 0 {
		panic(fmt.Sprintf("transform: repeats = %d must be positive", repeats))
	}
	out := make([][]int, 0, len(slots)*repeats)
	for _, slot := range slots {
		for r := 0; r < repeats; r++ {
			out = append(out, append([]int(nil), slot...))
		}
	}
	return out
}
