package fading

import (
	"fmt"
	"math"

	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// Plan is the part of a Counter that depends only on its gain matrix: each
// receiver's senders in visit order and which rows are all positive. Build
// it once per matrix with NewPlan; it is immutable, so one Plan may back any
// number of Counters on any number of goroutines.
type Plan struct{ plan }

// plan holds a Plan's fields; Counter embeds it by value, so a Counter reads
// them without an indirection.
type plan struct {
	m *network.Matrix
	// order holds, for each receiver i, the other senders strongest mean
	// gain first: row i is order[i*(n-1) : (i+1)*(n-1)]. Nil means every
	// set is visited in index order.
	order []int32
	// positive[i] reports that every gain into receiver i is positive, so
	// its uniforms can be drawn as one batch. Nil means check every gain.
	positive []bool
}

// NewPlan sorts m's rows into a Plan. m's gains must not change while the
// Plan or a Counter built from it is in use; its noise may, and is read at
// every Count.
func NewPlan(m *network.Matrix) *Plan {
	n := m.N
	ints := make([]int32, n*max(n-1, 0)+n)
	p := &Plan{plan{
		m:        m,
		order:    ints[: len(ints)-n : len(ints)-n],
		positive: make([]bool, n),
	}}
	p.sortRows(ints[len(ints)-n:])
	return p
}

// Counter returns a fresh Counter on the Plan's matrix. It allocates only
// the Counter's scratch, O(n), and shares the Plan's order and flags.
func (p *Plan) Counter() *Counter {
	n := p.m.N
	floats := make([]float64, 2*n+1)
	return &Counter{
		plan: p.plan,
		pos:  make([]int32, n),
		mask: floats[:n:n],
		u:    floats[n:],
		idx:  make([]int, 0, n),
	}
}

// Counter counts Rayleigh successes on one gain matrix. It is the counting
// kernel of the Monte-Carlo experiments: build it once per matrix with
// NewCounter, or once per goroutine with Plan.Counter, then call Count once
// per realization. It reads its Plan's order and flags, shared and never
// written, and owns its scratch, so Count does not allocate; a Counter is
// not safe for concurrent use, but Counters of one Plan are independent.
//
// Count returns exactly what the canonical computation returns — draw every
// exponential S(j,i) = −S̄(j,i)·ln u in increasing (receiver, sender) order,
// sum the interference from the noise up in index order, compare
// S(i,i)/interference with β — and leaves the stream where it leaves it. It
// gets there with less work. The uniforms are drawn exactly as the canonical
// computation draws them; then each receiver runs through up to three
// tiers, each reached only by receivers the one before left undecided:
//
//  1. Coarse. The interference is bounded by the sum ν + Σ g_j·ℓ̃(u_j),
//     where ℓ̃ is negLogCoarse, one table lookup within err = coarseErr of
//     −ln u, and own/β by [lo, hi] = g_ii·(ℓ̃(u_i) ∓ coarseErr)/β. On dense
//     active sets the senders are visited strongest mean gain first, so a
//     failing receiver is usually rejected after a few terms; on sparse
//     ones, and for a Counter without an order, in index order.
//  2. Precise. The same bounds in index order with negLog, within
//     err = logErr, against lo = hi = own/β, own from math.Log.
//  3. Canonical. The index-order loop with math.Log.
//
// A bounded tier rejects the receiver as soon as a lower bound on the
// canonical interference exceeds own/β, sum·(1−δ) − err·G > hi·(1+δ) with G
// the gains visited, and accepts it when, after every term, an upper bound
// is below it, sum·(1+δ) + err·G < lo·(1−δ). With a active links and unit
// roundoff u = 2⁻⁵³, δ = (a+8)·2⁻⁵⁰ = 8(a+8)u. The canonical sum is within
// (a+4)u (relative) of the exact real sum; the tier's sum within (2a+4)u of
// its own exact value, which is within err·G of the real sum; err·G within
// (a+2)u of itself, which is below (a+2)u of the sum whenever the lower
// bound is positive; [lo, hi] and the canonical own/β each within 4u of
// the exact bracket and own/β, the bracket holding −ln u_i within err; and
// the bound arithmetic within 4u. δ is more than twice all of it, so a
// decided receiver is decided as the canonical division would.
//
// The strongest-first walk does not branch on activity: it visits every
// other sender, multiplies its gain by mask (1 active, 0 not) and reads its
// uniform at pos, the sentinel slot u[len(idx)] for an inactive one. A
// zero or masked gain adds exactly 0, since negLogCoarse is finite for any
// bits; an infinite gain masked to 0 gives NaN, which fails both tests.
//
// Both bounded tiers are skipped when β or ν is not a normal positive
// number at most MaxFloat64/2, the coarse one when lo or hi is not and the
// precise one when own/β is not: there the relative bounds above do not
// hold, or a sum that overflows could reject wrongly. A bound that turns
// NaN fails both tests and moves on too. The visit order changes only how
// many terms are summed, never a result.
type Counter struct {
	plan           // shared with every Counter of the same Plan; read only
	pos  []int32   // pos[j] is link j's place in idx, or len(idx) if inactive
	mask []float64 // mask[j] is 1 if link j is active, 0 if not
	u    []float64 // u[k] is the uniform of sender idx[k]; u[len(idx)] the sentinel
	idx  []int     // the active links, in increasing order

	refined   int // receivers the coarse tier left undecided
	fallbacks int // receivers decided by the canonical loop
}

// NewCounter returns a Counter for m: NewPlan(m).Counter(), for a caller
// that counts on m from one goroutine.
func NewCounter(m *network.Matrix) *Counter { return NewPlan(m).Counter() }

// orderBuckets is how many binary orders of magnitude below a row's
// strongest gain sortRows tells apart; weaker and zero gains share the last
// bucket.
const orderBuckets = 64

// sortRows fills order, each receiver's other senders by decreasing mean
// gain up to a factor of two — a counting sort on the binary exponent below
// the row's largest, stable in sender index — and positive. It keeps each
// sender's bucket in keys, n entries of scratch.
func (p *plan) sortRows(keys []int32) {
	n := p.m.N
	for i := 0; i < n; i++ {
		row := p.m.Incoming(i)
		top, positive := 0, true
		for j, g := range row {
			positive = positive && g > 0
			if j != i {
				top = max(top, exponent(g))
			}
		}
		p.positive[i] = positive
		var bucket [orderBuckets]int
		for j, g := range row {
			if j != i {
				keys[j] = int32(min(top-exponent(g), orderBuckets-1))
				bucket[keys[j]]++
			}
		}
		start := 0
		for b, size := range bucket {
			bucket[b] = start
			start += size
		}
		dst := p.order[i*(n-1) : (i+1)*(n-1)]
		for j := range row {
			if j != i {
				dst[bucket[keys[j]]] = int32(j)
				bucket[keys[j]]++
			}
		}
	}
}

// exponent returns the biased binary exponent of g ≥ 0: 0 for zero and
// subnormal gains, larger for stronger ones.
func exponent(g float64) int { return int(math.Float64bits(g)>>52) & 0x7ff }

// minNormal is the smallest positive normal float64. The filter's margin is
// relative, which subnormal operands would break.
const minNormal = 0x1p-1022

// inDomain reports whether x is a normal positive number at most half the
// largest float64, the domain of the bounded tiers' operands. The cap keeps
// a sum that overflows to +Inf a valid reason to reject: the interference
// it bounds is then above MaxFloat64·(1 − 2⁻⁹), and own/β below it.
func inDomain(x float64) bool { return x >= minNormal && x <= math.MaxFloat64/2 }

// Count draws one Rayleigh realization for the links with active[i] set and
// returns how many of them reach SINR β. It consumes the stream exactly as
// SampleSINRsInto does; a zero gain draws nothing and a negative one panics.
func (c *Counter) Count(active []bool, beta float64, src *rng.Source) int {
	m := c.m
	if len(active) != m.N {
		panic(fmt.Sprintf("fading: %d activity flags for %d links", len(active), m.N))
	}
	idx := activeIndices(active, c.idx)
	u := c.u[:len(idx)]
	var order []int32
	if c.order != nil && 4*len(idx) >= m.N {
		order = c.order
		sentinel := int32(len(idx))
		c.u[sentinel] = 0.5 // a typical uniform: only the mask keeps inactive senders out
		for j := range c.pos {
			c.pos[j], c.mask[j] = sentinel, 0
		}
		for k, j := range idx {
			c.pos[j], c.mask[j] = int32(k), 1
		}
	}
	filter := inDomain(beta) && inDomain(m.Noise)
	delta := float64(len(idx)+8) * 0x1p-50
	count := 0
	for k, i := range idx {
		row := m.Incoming(i)
		if c.positive != nil && c.positive[i] {
			src.FillOpen(u)
		} else {
			for kj, j := range idx {
				if g := row[j]; g != 0 {
					if g < 0 {
						panic(fmt.Sprintf("fading: negative mean gain %g from sender %d at receiver %d", g, j, i))
					}
					u[kj] = src.Float64Open()
				}
			}
		}
		g := row[i]
		ok, decided := false, false
		if filter {
			l := negLogCoarse(u[k])
			lo, hi := g*(l-coarseErr)/beta, g*(l+coarseErr)/beta
			if inDomain(lo) && inDomain(hi) {
				if order != nil {
					ok, decided = c.coarseOrdered(row, order[i*(m.N-1):(i+1)*(m.N-1)], lo, hi, delta)
				} else {
					ok, decided = c.coarseIndexed(row, i, idx, u, lo, hi, delta)
				}
			}
		}
		if !decided {
			c.refined++
			var own float64
			if g != 0 {
				own = -g * math.Log(u[k])
			}
			if target := own / beta; filter && inDomain(target) {
				ok, decided = c.precise(row, i, idx, u, target, delta)
			}
			if !decided {
				c.fallbacks++
				ok = c.exact(row, i, idx, u, own, beta)
			}
		}
		if ok {
			count++
		}
	}
	return count
}

// coarseOrdered runs the coarse tier for one receiver over the senders of
// visit, strongest first, masking inactive ones: it reports whether the
// receiver succeeds and whether the bounds settled it.
func (c *Counter) coarseOrdered(row []float64, visit []int32, lo, hi, delta float64) (ok, decided bool) {
	reject, shrink := hi*(1+delta), 1-delta
	mask, pos, u := c.mask, c.pos, c.u
	sum, gains := c.m.Noise, 0.0
	for _, j := range visit {
		g := row[j] * mask[j]
		sum += g * negLogCoarse(u[pos[j]])
		gains += g
		if sum*shrink-coarseErr*gains > reject {
			return false, true
		}
	}
	return accept(sum, gains, coarseErr, lo, delta)
}

// coarseIndexed is coarseOrdered over the active senders in index order.
func (c *Counter) coarseIndexed(row []float64, i int, idx []int, u []float64, lo, hi, delta float64) (ok, decided bool) {
	reject := hi * (1 + delta)
	sum, gains := c.m.Noise, 0.0
	for k, j := range idx {
		g := row[j]
		if j == i {
			continue
		}
		sum += g * negLogCoarse(u[k])
		gains += g
		if sum*(1-delta)-coarseErr*gains > reject {
			return false, true
		}
	}
	return accept(sum, gains, coarseErr, lo, delta)
}

// precise is coarseIndexed with negLog, against own/β itself.
func (c *Counter) precise(row []float64, i int, idx []int, u []float64, target, delta float64) (ok, decided bool) {
	reject := target * (1 + delta)
	sum, gains := c.m.Noise, 0.0
	for k, j := range idx {
		g := row[j]
		if j == i || g == 0 {
			continue
		}
		sum += g * negLog(u[k])
		gains += g
		if sum*(1-delta)-logErr*gains > reject {
			return false, true
		}
	}
	return accept(sum, gains, logErr, target, delta)
}

// accept settles a receiver whose sum over every sender did not reject it:
// it succeeds if the upper bound, with err per unit gain, clears lo, and is
// left to the next tier otherwise.
func accept(sum, gains, err, lo, delta float64) (ok, decided bool) {
	if sum*(1+delta)+err*gains < lo*(1-delta) {
		return true, true
	}
	return false, false
}

// exact is the canonical decision for receiver i: the interference summed
// in index order from the noise up with math.Log, compared as own/interf ≥ β.
// It stops at the first partial sum that already fails: every term is
// non-negative and round-to-nearest addition is monotone, so no later
// partial sum is smaller; own/x rounds monotonically and does not grow with
// x > 0, so a partial sum that fails the test fails it with every term added.
func (c *Counter) exact(row []float64, i int, idx []int, u []float64, own, beta float64) bool {
	interf := c.m.Noise
	for k, j := range idx {
		if interf > 0 && own/interf < beta {
			return false
		}
		g := row[j]
		if j == i || g == 0 {
			continue
		}
		interf += -g * math.Log(u[k])
	}
	var v float64
	if interf != 0 {
		v = own / interf
	} else if own > 0 {
		v = math.Inf(1)
	}
	return v >= beta
}
