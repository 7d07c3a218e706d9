// Package opt computes (or estimates) the optimum of single-slot capacity
// maximization in the non-fading model: the largest feasible set of links
// at a given SINR threshold.
//
// The paper's Section 7 reports that "choosing the optimal set of sending
// links under uniform powers" on the Figure-1 workload yields 49.75
// successes on average. Exact maximization is NP-hard, so this package
// provides two engines:
//
//   - BruteForce — exact branch-and-bound for small instances, exploiting
//     that feasibility is downward closed (interference only grows with the
//     set), so search can maintain feasibility invariantly and prune by
//     cardinality;
//   - LocalSearch — greedy seed plus add/swap local search for instances of
//     the paper's size (n = 100), reporting a certified-feasible set that
//     lower-bounds the optimum.
//
// Both return feasibility-certified sets, so every reported "optimum" in
// EXPERIMENTS.md is a witnessed value, never just a bound.
package opt

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
)

// MaxBruteForceN caps the instance size BruteForce accepts. Branch-and-bound
// tames the 2^n tree well below this in practice, but the cap keeps a
// mistaken call from running for hours.
const MaxBruteForceN = 30

// BruteForce returns a maximum feasible set at threshold beta, found by
// exact branch-and-bound. It panics if m.N exceeds MaxBruteForceN.
//
// The search scans links in an order of decreasing own-signal strength
// (strong links first tighten the bound early), keeps the chosen prefix
// feasible at every node — valid because feasibility is downward closed —
// and prunes branches that cannot beat the incumbent by cardinality.
func BruteForce(m *network.Matrix, beta float64) []int {
	checkExact("BruteForce", m, beta)
	best, _ := branchAndBound(m, beta, nil)
	return best
}

// BruteForceWeighted returns a maximum-weight feasible set at threshold
// beta (weights from m.Weights), by the same downward-closed branch-and-
// bound as BruteForce with a weight-based bound. It panics if m.N exceeds
// MaxBruteForceN. It is the exact reference for link-weighted capacity
// maximization (the paper's second valid-utility family). It has no
// production caller; it stays as the oracle for capacity.GreedyWeighted
// (TestGreedyWeightedAgainstExact).
func BruteForceWeighted(m *network.Matrix, beta float64) (best []int, bestWeight float64) {
	checkExact("BruteForceWeighted", m, beta)
	return branchAndBound(m, beta, m.Weights)
}

func checkExact(name string, m *network.Matrix, beta float64) {
	if m.N > MaxBruteForceN {
		panic(fmt.Sprintf("opt: %s limited to n ≤ %d, got %d", name, MaxBruteForceN, m.N))
	}
	if beta <= 0 {
		panic(fmt.Sprintf("opt: threshold β = %g must be positive", beta))
	}
}

// branchAndBound returns a maximum-weight feasible set, sorted, and its
// weight. weight[i] is link i's weight; a nil weight counts every link as
// 1. It scans the links of positive weight that reach β alone heaviest
// first, or strongest own gain first under unit weights (ties by index):
// either tightens the incumbent early. The chosen prefix is a sinr.Budget
// at τ = 1, so it stays feasible at every node, and a branch is cut when
// its weight plus all that is left to scan cannot beat the incumbent.
func branchAndBound(m *network.Matrix, beta float64, weight []float64) ([]int, float64) {
	order := make([]int, 0, m.N)
	for i := 0; i < m.N; i++ {
		if (weight == nil || weight[i] > 0) && sinr.Alone(m, i, beta) {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if weight == nil {
			return cmp.Compare(m.Own(b), m.Own(a))
		}
		return cmp.Compare(weight[b], weight[a])
	})
	// suffix[k] = total weight of order[k:], the optimistic bound.
	suffix := make([]float64, len(order)+1)
	for k := len(order) - 1; k >= 0; k-- {
		suffix[k] = suffix[k+1] + weightOf(weight, order[k])
	}

	chosen := sinr.NewBudget(m, beta, 1)
	chosenWeight, bestWeight := 0.0, 0.0
	best := make([]int, 0, len(order))
	var recurse func(pos int)
	recurse = func(pos int) {
		if chosenWeight+suffix[pos] <= bestWeight {
			return // cannot beat incumbent
		}
		if pos == len(order) {
			if chosenWeight > bestWeight {
				bestWeight = chosenWeight
				best = append(best[:0], chosen.Members()...)
			}
			return
		}
		cand := order[pos]
		// Branch 1: include cand if the set stays feasible.
		if chosen.TryAdd(cand) {
			chosenWeight += weightOf(weight, cand)
			recurse(pos + 1)
			chosenWeight -= weightOf(weight, cand)
			chosen.Remove(cand)
		}
		// Branch 2: exclude cand.
		recurse(pos + 1)
	}
	recurse(0)
	sort.Ints(best)
	return best, bestWeight
}

// weightOf is link i's weight in branchAndBound: weight[i], or 1 when
// weight is nil.
func weightOf(weight []float64, i int) float64 {
	if weight == nil {
		return 1
	}
	return weight[i]
}

// LocalSearchConfig tunes the heuristic optimum estimator.
type LocalSearchConfig struct {
	// Restarts is the number of randomized greedy seeds (≥ 1).
	Restarts int
	// SwapPasses bounds the number of full improvement sweeps per restart.
	SwapPasses int
}

// DefaultLocalSearch is the configuration used by the experiment harness.
var DefaultLocalSearch = LocalSearchConfig{Restarts: 8, SwapPasses: 30}

// LocalSearch estimates the maximum feasible set at threshold beta on
// instances too large for BruteForce. Each restart seeds with a randomized
// greedy pass (random scan order biased toward strong links) and then
// alternates two improvement moves until a fixed point:
//
//   - add: insert any outside link that keeps the set feasible;
//   - 1-swap: remove one link and insert two (found greedily) when that
//     grows the set.
//
// The best set across restarts is returned, always feasibility-certified.
func LocalSearch(m *network.Matrix, beta float64, cfg LocalSearchConfig, src *rng.Source) []int {
	if cfg.Restarts <= 0 {
		cfg.Restarts = 1
	}
	if cfg.SwapPasses <= 0 {
		cfg.SwapPasses = 10
	}
	if beta <= 0 {
		panic(fmt.Sprintf("opt: threshold β = %g must be positive", beta))
	}
	best := []int{}
	for r := 0; r < cfg.Restarts; r++ {
		set := randomizedGreedy(m, beta, src)
		set = improve(m, beta, set, cfg.SwapPasses, src)
		if len(set) > len(best) {
			best = set
		}
	}
	sort.Ints(best)
	return best
}

// randomizedGreedy scans links in a randomly perturbed strong-first order,
// accepting links that keep the set feasible.
func randomizedGreedy(m *network.Matrix, beta float64, src *rng.Source) []int {
	order := src.Perm(m.N)
	// Bias: sort by own gain with random tie-ish jitter — shuffle then
	// stable-sort by a coarse bucket of own gain, keeping diversity.
	sort.SliceStable(order, func(a, b int) bool {
		ga, gb := m.Own(order[a]), m.Own(order[b])
		return ga > gb*(1+0.2*src.Float64())
	})
	acc := sinr.NewBudget(m, beta, 1)
	for _, cand := range order {
		acc.TryAdd(cand)
	}
	return acc.Members()
}

// improve runs add and 1-swap passes until no move helps or the pass budget
// is exhausted.
func improve(m *network.Matrix, beta float64, set []int, passes int, src *rng.Source) []int {
	acc := sinr.NewBudget(m, beta, 1)
	for _, i := range set {
		acc.TryAdd(i) // the seed is feasible, so every member is admitted
	}
	for p := 0; p < passes; p++ {
		changed := false
		// Add pass, in random order for diversity.
		for _, cand := range src.Perm(m.N) {
			if acc.TryAdd(cand) {
				changed = true
			}
		}
		// 1-out-2-in swap pass, over a copy: the pass reorders the members.
		for _, out := range append([]int(nil), acc.Members()...) {
			acc.Remove(out)
			added := []int{}
			for _, cand := range src.Perm(m.N) {
				if cand != out && acc.TryAdd(cand) {
					added = append(added, cand)
					if len(added) == 2 {
						break
					}
				}
			}
			if len(added) >= 2 {
				changed = true // net gain of one
				continue
			}
			// Roll back: remove what we added, re-add out.
			for _, a := range added {
				acc.Remove(a)
			}
			if !acc.TryAdd(out) {
				panic("opt: rollback failed to restore a feasible member")
			}
		}
		if !changed {
			break
		}
	}
	return acc.Members()
}
