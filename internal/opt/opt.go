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
	"fmt"
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
	if m.N > MaxBruteForceN {
		panic(fmt.Sprintf("opt: BruteForce limited to n ≤ %d, got %d", MaxBruteForceN, m.N))
	}
	if beta <= 0 {
		panic(fmt.Sprintf("opt: threshold β = %g must be positive", beta))
	}
	order := make([]int, m.N)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return m.Own(order[a]) > m.Own(order[b])
	})
	// Pre-drop links that cannot succeed even alone.
	viable := order[:0]
	for _, i := range order {
		if m.Own(i) >= beta*m.Noise && m.Own(i) > 0 {
			viable = append(viable, i)
		}
	}

	best := []int{}
	chosen := make([]int, 0, len(viable))
	// load[i] = Σ uncapped affectance on chosen link i from other chosen.
	load := make([]float64, m.N)

	var recurse func(pos int)
	recurse = func(pos int) {
		if len(chosen)+(len(viable)-pos) <= len(best) {
			return // cannot beat incumbent
		}
		if pos == len(viable) {
			if len(chosen) > len(best) {
				best = append(best[:0], chosen...)
			}
			return
		}
		cand := viable[pos]
		// Branch 1: include cand if the set stays feasible.
		inbound := 0.0
		feasible := true
		for _, s := range chosen {
			inbound += sinr.AffectanceUncapped(m, beta, s, cand)
			if inbound > 1 {
				feasible = false
				break
			}
			if load[s]+sinr.AffectanceUncapped(m, beta, cand, s) > 1 {
				feasible = false
				break
			}
		}
		if feasible {
			for _, s := range chosen {
				load[s] += sinr.AffectanceUncapped(m, beta, cand, s)
			}
			load[cand] = inbound
			chosen = append(chosen, cand)
			recurse(pos + 1)
			chosen = chosen[:len(chosen)-1]
			for _, s := range chosen {
				load[s] -= sinr.AffectanceUncapped(m, beta, cand, s)
			}
			load[cand] = 0
		}
		// Branch 2: exclude cand.
		recurse(pos + 1)
	}
	recurse(0)
	sort.Ints(best)
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
	if m.N > MaxBruteForceN {
		panic(fmt.Sprintf("opt: BruteForceWeighted limited to n ≤ %d, got %d", MaxBruteForceN, m.N))
	}
	if beta <= 0 {
		panic(fmt.Sprintf("opt: threshold β = %g must be positive", beta))
	}
	order := make([]int, 0, m.N)
	for i := 0; i < m.N; i++ {
		if m.Weights[i] > 0 && m.Own(i) >= beta*m.Noise && m.Own(i) > 0 {
			order = append(order, i)
		}
	}
	// Heavy links first: tightens the incumbent early.
	sort.SliceStable(order, func(a, b int) bool { return m.Weights[order[a]] > m.Weights[order[b]] })
	// suffix[k] = total weight of order[k:], the optimistic bound.
	suffix := make([]float64, len(order)+1)
	for k := len(order) - 1; k >= 0; k-- {
		suffix[k] = suffix[k+1] + m.Weights[order[k]]
	}

	chosen := make([]int, 0, len(order))
	chosenWeight := 0.0
	load := make([]float64, m.N)

	var recurse func(pos int)
	recurse = func(pos int) {
		if chosenWeight+suffix[pos] <= bestWeight {
			return
		}
		if pos == len(order) {
			if chosenWeight > bestWeight {
				bestWeight = chosenWeight
				best = append(best[:0], chosen...)
			}
			return
		}
		cand := order[pos]
		inbound := 0.0
		feasible := true
		for _, s := range chosen {
			inbound += sinr.AffectanceUncapped(m, beta, s, cand)
			if inbound > 1 {
				feasible = false
				break
			}
			if load[s]+sinr.AffectanceUncapped(m, beta, cand, s) > 1 {
				feasible = false
				break
			}
		}
		if feasible {
			for _, s := range chosen {
				load[s] += sinr.AffectanceUncapped(m, beta, cand, s)
			}
			load[cand] = inbound
			chosen = append(chosen, cand)
			chosenWeight += m.Weights[cand]
			recurse(pos + 1)
			chosenWeight -= m.Weights[cand]
			chosen = chosen[:len(chosen)-1]
			for _, s := range chosen {
				load[s] -= sinr.AffectanceUncapped(m, beta, cand, s)
			}
			load[cand] = 0
		}
		recurse(pos + 1)
	}
	recurse(0)
	sort.Ints(best)
	return best, bestWeight
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
	acc := newLoadSet(m, beta)
	for _, cand := range order {
		acc.tryAdd(cand)
	}
	return acc.members()
}

// improve runs add and 1-swap passes until no move helps or the pass budget
// is exhausted.
func improve(m *network.Matrix, beta float64, set []int, passes int, src *rng.Source) []int {
	acc := newLoadSet(m, beta)
	for _, i := range set {
		if !acc.tryAdd(i) {
			// Seed should always be feasible; tolerate and skip otherwise.
			continue
		}
	}
	for p := 0; p < passes; p++ {
		changed := false
		// Add pass, in random order for diversity.
		for _, cand := range src.Perm(m.N) {
			if !acc.in[cand] && acc.tryAdd(cand) {
				changed = true
			}
		}
		// 1-out-2-in swap pass.
		for _, out := range acc.members() {
			acc.remove(out)
			added := []int{}
			for _, cand := range src.Perm(m.N) {
				if cand != out && !acc.in[cand] && acc.tryAdd(cand) {
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
				acc.remove(a)
			}
			if !acc.tryAdd(out) {
				panic("opt: rollback failed to restore a feasible member")
			}
		}
		if !changed {
			break
		}
	}
	return acc.members()
}

// loadSet maintains a feasible set with per-member affectance loads for
// O(|S|) add probes.
type loadSet struct {
	m    *network.Matrix
	beta float64
	in   []bool
	load []float64
	set  []int
}

func newLoadSet(m *network.Matrix, beta float64) *loadSet {
	return &loadSet{m: m, beta: beta, in: make([]bool, m.N), load: make([]float64, m.N)}
}

// tryAdd inserts cand if the set stays feasible; reports success.
func (l *loadSet) tryAdd(cand int) bool {
	if l.in[cand] {
		return false
	}
	if l.m.Own(cand) <= l.beta*l.m.Noise || l.m.Own(cand) == 0 {
		return false
	}
	inbound := 0.0
	for _, s := range l.set {
		inbound += sinr.AffectanceUncapped(l.m, l.beta, s, cand)
		if inbound > 1 {
			return false
		}
		if l.load[s]+sinr.AffectanceUncapped(l.m, l.beta, cand, s) > 1 {
			return false
		}
	}
	for _, s := range l.set {
		l.load[s] += sinr.AffectanceUncapped(l.m, l.beta, cand, s)
	}
	l.load[cand] = inbound
	l.in[cand] = true
	l.set = append(l.set, cand)
	return true
}

// remove deletes a member and updates loads.
func (l *loadSet) remove(out int) {
	if !l.in[out] {
		panic(fmt.Sprintf("opt: removing non-member %d", out))
	}
	l.in[out] = false
	for k, s := range l.set {
		if s == out {
			l.set = append(l.set[:k], l.set[k+1:]...)
			break
		}
	}
	for _, s := range l.set {
		l.load[s] -= sinr.AffectanceUncapped(l.m, l.beta, out, s)
	}
	l.load[out] = 0
}

// members returns a copy of the current set.
func (l *loadSet) members() []int {
	return append([]int(nil), l.set...)
}
