// Package sinr evaluates the deterministic (non-fading) SINR model of the
// paper's Section 2 on top of a gain matrix: signal-to-interference-plus-
// noise ratios, feasibility of transmission sets against a threshold β, and
// the affectance measure used by the capacity algorithms and by Lemma 6.
//
// Given the expected-strength matrix S̄ and a set S of transmitting links,
// the SINR of link i ∈ S is
//
//	γ_i^nf = S̄(i,i) / (Σ_{j ∈ S, j ≠ i} S̄(j,i) + ν).
//
// Link i "succeeds" if γ_i^nf ≥ β, and S is feasible if every link in S
// succeeds simultaneously.
package sinr

import (
	"fmt"
	"math"
	"slices"

	"rayfade/internal/network"
)

// Value returns the non-fading SINR γ_i^nf of link i when exactly the links
// with active[j] == true transmit. If i itself is not active, Value returns
// 0 (a link that does not transmit achieves no rate). If interference and
// noise are both zero the SINR is +Inf when i's own gain is positive and 0
// otherwise, as in SINRAt. It has no production caller; it stays as the
// direct evaluation of the SINR definition that ValuesInto, SINRAt and the
// Accumulator are checked against (TestValuesMatchesValue,
// TestSINRAtMatchesValue, TestAccumulatorMatchesDirect).
func Value(m *network.Matrix, active []bool, i int) float64 {
	if !active[i] {
		return 0
	}
	in := m.Incoming(i)
	interf := m.Noise
	for j := range active {
		if j != i && active[j] {
			interf += in[j]
		}
	}
	return ratio(in[i], interf)
}

// ratio is the SINR of an own gain against interference plus noise interf:
// own/interf, or, when interf is 0, +Inf for a positive own gain and 0
// otherwise — the Rayleigh counter's rule, so a silent link never succeeds
// in one model and fails in the other.
func ratio(own, interf float64) float64 {
	if interf != 0 {
		return own / interf
	}
	if own > 0 {
		return math.Inf(1)
	}
	return 0
}

// Values returns the SINR of every link under the given activity vector;
// inactive links report 0.
func Values(m *network.Matrix, active []bool) []float64 {
	return ValuesInto(m, active, make([]float64, m.N))
}

// ValuesInto computes the per-link SINRs into the caller-owned buffer out
// (length m.N) and returns it, allocating nothing: inactive links report 0
// and active ones what SINRAt reports for them, bit for bit. Hot
// Monte-Carlo loops reuse one buffer across calls.
func ValuesInto(m *network.Matrix, active []bool, out []float64) []float64 {
	if len(out) != m.N {
		panic(fmt.Sprintf("sinr: SINR buffer length %d for %d links", len(out), m.N))
	}
	for i := range out {
		out[i] = 0
	}
	// Receiver-major layout: the interference sum for receiver i reads the
	// contiguous Incoming(i) slice front to back, in the same j order as
	// always — cache-linear without reordering a single addition.
	for i := 0; i < m.N; i++ {
		if !active[i] {
			continue
		}
		in := m.Incoming(i)
		interf := m.Noise
		for j := 0; j < m.N; j++ {
			if j != i && active[j] {
				interf += in[j]
			}
		}
		out[i] = ratio(in[i], interf)
	}
	return out
}

// ActiveList lists the links with active[j] set into idx, in increasing
// index order, and returns it: the active list SINRAt decides links
// against. It reuses idx's storage (contents overwritten), allocating
// nothing when cap(idx) ≥ the number of active links.
func ActiveList(active []bool, idx []int) []int {
	idx = idx[:0]
	for j, a := range active {
		if a {
			idx = append(idx, j)
		}
	}
	return idx
}

// SINRAt returns the non-fading SINR of link i transmitting alongside every
// other sender of the active list idx (increasing, as ActiveList builds
// it). k is i's place in idx: the number of senders below i, so idx[k] == i
// when i is itself active. The interference is the noise plus Incoming(i)[j]
// for each sender j ≠ i, added in index order; when it is 0 the SINR is
// +Inf for a positive own gain and 0 otherwise. For an active link this is
// its SINR in the round; for an idle one, the SINR it would get by joining.
//
// This is the one place the non-fading rule is summed over a transmitting
// set: Figure 1, the regret game, the latency schedulers and Feasible all
// decide through it. It visits only the senders, and splits the list at i
// instead of testing every term against it.
func SINRAt(m *network.Matrix, idx []int, k, i int) float64 {
	in := m.Incoming(i)
	interf := m.Noise
	for _, j := range idx[:k] {
		interf += in[j]
	}
	if k < len(idx) && idx[k] == i {
		k++
	}
	for _, j := range idx[k:] {
		interf += in[j]
	}
	return ratio(in[i], interf)
}

// CountSuccesses returns how many links of the active list idx reach SINR
// β against the rest of it.
func CountSuccesses(m *network.Matrix, idx []int, beta float64) int {
	count := 0
	for k, i := range idx {
		if SINRAt(m, idx, k, i) >= beta {
			count++
		}
	}
	return count
}

// AppendSuccesses appends to ok the links of the active list idx that
// reach SINR β against the rest of it, in index order, and returns the
// extended slice.
func AppendSuccesses(ok []int, m *network.Matrix, idx []int, beta float64) []int {
	for k, i := range idx {
		if SINRAt(m, idx, k, i) >= beta {
			ok = append(ok, i)
		}
	}
	return ok
}

// SetToActive converts a set of link indices into an activity vector.
// It panics on out-of-range or duplicate indices.
func SetToActive(n int, set []int) []bool {
	active := make([]bool, n)
	for _, i := range set {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("sinr: link index %d out of range [0,%d)", i, n))
		}
		if active[i] {
			panic(fmt.Sprintf("sinr: duplicate link index %d", i))
		}
		active[i] = true
	}
	return active
}

// Feasible reports whether the set of links is simultaneously successful at
// threshold β: every link in the set reaches SINR ≥ β when exactly the set
// transmits. The empty set is feasible.
func Feasible(m *network.Matrix, set []int, beta float64) bool {
	idx := ActiveList(SetToActive(m.N, set), make([]int, 0, len(set)))
	for k, i := range idx {
		if SINRAt(m, idx, k, i) < beta {
			return false
		}
	}
	return true
}

// Alone reports whether link i reaches SINR β transmitting by itself:
// ratio(Own(i), ν) ≥ β, the rule SINRAt applies to a one-link list, so
// Alone(m, i, β) is exactly Feasible(m, []int{i}, β). A link that fails it
// can never succeed, whatever else is silent.
func Alone(m *network.Matrix, i int, beta float64) bool {
	return ratio(m.Own(i), m.Noise) >= beta
}

// Affectance returns a(j,i), the (uniform-threshold) affectance of link j on
// link i at threshold β: the fraction of link i's interference tolerance
// that j's transmission consumes, capped at 1. In gain terms,
//
//	a(j,i) = min{ 1, β·S̄(j,i) / (S̄(i,i) − β·ν) },
//
// which for uniform powers reduces to the distance form in the paper's
// Lemma 6. If the noise alone already prevents link i from reaching β
// (S̄(i,i) ≤ β·ν), the affectance is 1: the link is beyond help.
// Self-affectance a(i,i) is defined as 0.
func Affectance(m *network.Matrix, beta float64, j, i int) float64 {
	if j == i {
		return 0
	}
	margin := m.Own(i) - beta*m.Noise
	if margin <= 0 {
		return 1
	}
	a := beta * m.At(j, i) / margin
	if a > 1 {
		return 1
	}
	return a
}

// AffectanceUncapped returns the raw affectance ratio β·S̄(j,i)/(S̄(i,i)−β·ν)
// without the cap at 1. Unlike the capped form, the uncapped sum exactly
// characterizes the SINR constraint: link i succeeds alongside set S iff
// Σ_{j∈S} AffectanceUncapped(j,i) ≤ 1. A noise-dominated link (margin ≤ 0)
// reports +Inf.
func AffectanceUncapped(m *network.Matrix, beta float64, j, i int) float64 {
	if j == i {
		return 0
	}
	margin := m.Own(i) - beta*m.Noise
	if margin <= 0 {
		if beta*m.At(j, i) == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return beta * m.At(j, i) / margin
}

// FeasibleByAffectance reports whether every link i in the set has total
// uncapped affectance at most 1 from the rest of the set, which is exactly
// the SINR feasibility condition (noise-dominated links make the set
// infeasible). It has no production caller; it stays as the affectance-
// space oracle for Feasible (TestQuickFeasibleByAffectanceAgrees).
func FeasibleByAffectance(m *network.Matrix, set []int, beta float64) bool {
	for _, i := range set {
		if m.Own(i) < beta*m.Noise {
			return false // noise alone already defeats link i
		}
		sum := 0.0
		for _, j := range set {
			if j != i {
				sum += AffectanceUncapped(m, beta, j, i)
			}
		}
		if !(sum <= 1) { // rejects sums > 1 as well as Inf and NaN
			return false
		}
	}
	return true
}

// Budget is a set of links kept within an affectance budget τ: every
// member's total uncapped affectance from the other members stays at most
// τ. At τ = 1 that is the SINR feasibility condition at β (see
// AffectanceUncapped); the capacity greedy scans with τ < 1 to leave room
// for mutual interference. It is the one acceptance rule behind the
// capacity greedy, the exact optima and the local search.
//
// Each member's load (the affectance on it from the others) is kept
// incrementally, so a TryAdd probe costs O(|S|). Sums run in insertion
// order, and a Remove subtracts what the matching TryAdd added.
type Budget struct {
	m    *network.Matrix
	beta float64
	tau  float64
	in   []bool
	load []float64
	set  []int
}

// NewBudget returns an empty budget over the matrix at threshold beta and
// affectance budget tau, with room for every link.
func NewBudget(m *network.Matrix, beta, tau float64) *Budget {
	return &Budget{
		m: m, beta: beta, tau: tau,
		in:   make([]bool, m.N),
		load: make([]float64, m.N),
		set:  make([]int, 0, m.N),
	}
}

// TryAdd admits link cand and reports true when cand is not a member,
// reaches β alone, takes at most τ in total affectance from the members,
// and adds to no member's load beyond τ. Otherwise it leaves the set as it
// was and reports false. The probe stops at the first sum over τ. It
// panics if cand is out of range.
func (b *Budget) TryAdd(cand int) bool {
	if cand < 0 || cand >= len(b.in) {
		panic(fmt.Sprintf("sinr: link index %d out of range [0,%d)", cand, len(b.in)))
	}
	m, beta, tau, load := b.m, b.beta, b.tau, b.load
	if b.in[cand] || !Alone(m, cand, beta) {
		return false
	}
	inbound := 0.0
	for _, s := range b.set {
		inbound += AffectanceUncapped(m, beta, s, cand)
		if inbound > tau {
			return false
		}
		if load[s]+AffectanceUncapped(m, beta, cand, s) > tau {
			return false
		}
	}
	for _, s := range b.set {
		load[s] += AffectanceUncapped(m, beta, cand, s)
	}
	load[cand] = inbound
	b.in[cand] = true
	b.set = append(b.set, cand)
	return true
}

// Remove takes member out of the set, keeping the others in insertion
// order, and takes its affectance off their loads. It panics if out is not
// a member.
func (b *Budget) Remove(out int) {
	if out < 0 || out >= len(b.in) || !b.in[out] {
		panic(fmt.Sprintf("sinr: removing non-member %d", out))
	}
	b.in[out] = false
	// The branch-and-bound removes the newest member: pop it unsearched.
	if last := len(b.set) - 1; b.set[last] == out {
		b.set = b.set[:last]
	} else {
		k := slices.Index(b.set, out)
		b.set = append(b.set[:k], b.set[k+1:]...)
	}
	m, beta, load := b.m, b.beta, b.load
	for _, s := range b.set {
		load[s] -= AffectanceUncapped(m, beta, out, s)
	}
	load[out] = 0
}

// Members returns the members in insertion order. The slice is the
// budget's own: it changes with the next TryAdd or Remove, so a caller
// that keeps it or mutates the set while reading it takes a copy.
func (b *Budget) Members() []int { return b.set }

// Accumulator incrementally maintains, for every receiver, the total
// interference from the currently active senders, so PartitionToSignal's
// repeated SINR probes cost O(n) each instead of O(n²).
type Accumulator struct {
	m      *network.Matrix
	interf []float64 // interf[i] = Σ_{active j} S̄(j,i), including j == i
	active []bool
	count  int
}

// NewAccumulator returns an empty accumulator over the matrix.
func NewAccumulator(m *network.Matrix) *Accumulator {
	return &Accumulator{
		m:      m,
		interf: make([]float64, m.N),
		active: make([]bool, m.N),
	}
}

// Add activates sender j. It panics if j is already active.
func (a *Accumulator) Add(j int) {
	if a.active[j] {
		panic(fmt.Sprintf("sinr: sender %d already active", j))
	}
	a.active[j] = true
	a.count++
	// Sender-indexed update over a receiver-major matrix: a stride-N walk.
	// The accumulator serves the incremental partitioning passes, whose cost
	// is dominated by the repeated SINR probes, not these O(n) updates.
	for i := 0; i < a.m.N; i++ {
		a.interf[i] += a.m.At(j, i)
	}
}

// Remove deactivates sender j. It panics if j is not active.
func (a *Accumulator) Remove(j int) {
	if !a.active[j] {
		panic(fmt.Sprintf("sinr: sender %d not active", j))
	}
	a.active[j] = false
	a.count--
	for i := 0; i < a.m.N; i++ {
		a.interf[i] -= a.m.At(j, i)
	}
}

// Count returns the number of active senders.
func (a *Accumulator) Count() int { return a.count }

// SINR returns the SINR link i would see right now. If i is active its own
// signal is excluded from the interference; if i is inactive the value is
// the SINR it would get by joining the current set.
func (a *Accumulator) SINR(i int) float64 {
	interf := a.interf[i] + a.m.Noise
	if a.active[i] {
		interf -= a.m.Own(i)
	}
	// Guard against cancellation leaving a tiny negative residue.
	return ratio(a.m.Own(i), max(interf, 0))
}

// Set returns the currently active links as a sorted index set.
func (a *Accumulator) Set() []int { return ActiveList(a.active, nil) }
