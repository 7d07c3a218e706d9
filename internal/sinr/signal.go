package sinr

import (
	"fmt"
	"math"

	"rayfade/internal/network"
)

// SignalStrength returns the signal strength of a transmitting set: the
// minimum over its links of γ_i / β, i.e. the factor by which every link
// clears (or misses) the threshold. A set is feasible iff its strength is
// at least 1; it is a p-signal set (Halldórsson–Wattenhofer, ICALP 2009 —
// the paper's reference [25]) iff its strength is at least p. Stronger sets
// are more robust: under Rayleigh fading their links succeed with higher
// probability, which is why signal-strengthening appears as a tool in the
// transferred algorithms' analyses. The empty set has infinite strength.
// It has no production caller; it stays as the oracle for PartitionToSignal's
// p-signal guarantee (TestPartitionToSignalCovers).
func SignalStrength(m *network.Matrix, set []int, beta float64) float64 {
	if beta <= 0 {
		panic(fmt.Sprintf("sinr: threshold β = %g must be positive", beta))
	}
	if len(set) == 0 {
		return math.Inf(1)
	}
	active := SetToActive(m.N, set)
	vals := Values(m, active)
	strength := math.Inf(1)
	for _, i := range set {
		strength = math.Min(strength, vals[i]/beta)
	}
	return strength
}

// PartitionToSignal partitions a feasible set into subsets that are each
// p-signal sets (every link's SINR at least p·β when only its subset
// transmits), for p ≥ 1. The classic signal-strengthening lemma guarantees
// a partition into O(p) parts exists; this greedy first-fit constructs one:
// links are assigned to the first part that stays p-signal after insertion,
// opening a new part when none does.
//
// Singleton viability is required: a link that cannot reach p·β even alone
// (noise-dominated) makes the partition impossible and yields an error.
// It has no production caller; it stays because it states the
// signal-strengthening lemma (TestPartitionToSignalCovers,
// TestSignalStrengthImprovesFadingSurvival).
func PartitionToSignal(m *network.Matrix, set []int, beta, p float64) ([][]int, error) {
	if p < 1 {
		return nil, fmt.Errorf("sinr: signal factor p = %g must be at least 1", p)
	}
	target := p * beta
	var parts [][]int
	var accs []*Accumulator
	for _, cand := range set {
		if cand < 0 || cand >= m.N {
			return nil, fmt.Errorf("sinr: link %d out of range", cand)
		}
		if !Alone(m, cand, target) {
			return nil, fmt.Errorf("sinr: link %d cannot reach %g·β even alone", cand, p)
		}
		placed := false
		for k, acc := range accs {
			if fitsSignal(acc, cand, target) {
				acc.Add(cand)
				parts[k] = append(parts[k], cand)
				placed = true
				break
			}
		}
		if !placed {
			acc := NewAccumulator(m)
			acc.Add(cand)
			accs = append(accs, acc)
			parts = append(parts, []int{cand})
		}
	}
	return parts, nil
}

// LowOutAffectanceCore returns L' = {u ∈ set : Σ_{v∈set} a(u,v) ≤ bound},
// the members whose total OUTGOING capped affectance onto the rest of the
// set stays within bound. For a feasible set and bound = 2 this is the set
// the paper's Lemma 7 (Ásgeirsson–Mitra Lemma 8) guarantees to contain at
// least half the links: feasibility caps every link's incoming affectance
// at 1, so the total is at most |set| and fewer than half the members can
// emit more than 2. The Theorem-4 argument (throughput of no-regret
// dynamics) runs on exactly this core. It has no production caller; it
// stays because it states Lemma 7 (TestQuickLemma7HalfCore).
func LowOutAffectanceCore(m *network.Matrix, set []int, beta, bound float64) []int {
	if bound <= 0 {
		panic(fmt.Sprintf("sinr: affectance bound %g must be positive", bound))
	}
	var core []int
	for _, u := range set {
		out := 0.0
		for _, v := range set {
			if v != u {
				out += Affectance(m, beta, u, v)
			}
		}
		if out <= bound {
			core = append(core, u)
		}
	}
	return core
}

// fitsSignal reports whether adding cand keeps every member of the
// accumulator's set, and cand itself, at SINR ≥ target.
func fitsSignal(acc *Accumulator, cand int, target float64) bool {
	if acc.SINR(cand) < target {
		return false
	}
	acc.Add(cand)
	ok := true
	for _, i := range acc.Set() {
		if acc.SINR(i) < target {
			ok = false
			break
		}
	}
	acc.Remove(cand)
	return ok
}
