package fading

import (
	"fmt"
	"math"

	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// Plan is the part of a Counter that depends only on its gain matrix: each
// receiver's HeadSize strongest senders and which rows are all positive.
// Build it once per matrix with NewPlan; it is immutable, so one Plan may
// back any number of Counters on any number of goroutines.
type Plan struct{ plan }

// HeadSize is how many of each receiver's strongest senders a Plan keeps:
// the senders the coarse tier tries first to reject the receiver.
const HeadSize = 6

// plan holds a Plan's fields; Counter embeds it by value, so a Counter reads
// them without an indirection.
type plan struct {
	m *network.Matrix
	// head holds, for each receiver i, its w = min(HeadSize, n−1) other
	// senders of largest mean gain, strongest first: row i is
	// head[i*w : (i+1)*w]. Nil means no set is tried on a head.
	head []int32
	// positive[i] reports that every gain into receiver i is positive, so
	// its uniforms can be drawn as one batch. Nil means check every gain.
	positive []bool
}

// NewPlan sorts m's rows into a Plan. m's gains must not change while the
// Plan or a Counter built from it is in use; its noise may, and is read at
// every Count.
func NewPlan(m *network.Matrix) *Plan {
	n := m.N
	w := min(HeadSize, max(n-1, 0))
	p := &Plan{plan{
		m:        m,
		head:     make([]int32, n*w),
		positive: make([]bool, n),
	}}
	p.sortRows(w)
	return p
}

// Counter returns a fresh Counter on the Plan's matrix. It allocates only
// the Counter's scratch, O(n), and shares the Plan's head and flags.
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

// Counter decides Rayleigh successes on one gain matrix. It is the one
// success kernel of the Monte-Carlo experiments: build it once per matrix
// with NewCounter, or once per goroutine with Plan.Counter, then call Count
// once per realization, or Counterfactual once per link asked what it would
// have got. It reads its Plan's head and flags, shared and never written,
// and owns its scratch, so neither allocates; a Counter is not safe for
// concurrent use, but Counters of one Plan are independent.
//
// Count returns exactly what the canonical computation returns — draw every
// exponential S(j,i) = −S̄(j,i)·ln u in increasing (receiver, sender) order,
// sum the interference from the noise up in index order, compare
// S(i,i)/interference with β — and leaves the stream where it leaves it. It
// gets there with less work. The uniforms are drawn exactly as the canonical
// computation draws them; then each receiver runs through up to two tiers,
// the second reached only by receivers the first left undecided:
//
//  1. Coarse. The interference is bounded by the sum ν + Σ g_j·ℓ̃(u_j),
//     where ℓ̃ is negLogCoarse, one table lookup within coarseErr of −ln u,
//     and own/β by [lo, hi] = g_ii·(ℓ̃(u_i) ∓ coarseErr)/β. On dense
//     active sets the receiver's head, its HeadSize strongest senders, is
//     tried first with the reject test after every term; a receiver it
//     does not reject, or of a sparse set, gets one straight sum over its
//     other active senders and both tests. The straight sum is one call
//     that skips the receiver's own place; it runs eight lanes wide where
//     the CPU has AVX-512, and in index order otherwise.
//  2. Canonical. The index-order loop with math.Log.
//
// The coarse tier rejects the receiver when a lower bound on the canonical
// interference, even a partial sum, exceeds own/β, sum·(1−δ) − err·G >
// hi·(1+δ) with err = coarseErr and G the gains summed, and accepts it
// when, after every term, an upper bound is below it, sum·(1+δ) + err·G <
// lo·(1−δ). With a active links and unit roundoff u = 2⁻⁵³, δ =
// (a+8)·2⁻⁵⁰ = 8(a+8)u. The canonical sum is within (a+4)u (relative) of
// the exact real sum; the tier's sum within (2a+4)u of its own exact
// value, which is within err·G of the real sum; err·G within (a+2)u of
// itself, which is below (a+2)u of the sum whenever the lower bound is
// positive. The lane order keeps both: each of the eight lanes sums at
// most ⌈a/8⌉ products from 0, and a three-level tree and the final ν add
// follow, so that sum is within (⌈a/8⌉+5)u ≤ (2a+4)u of its exact value
// and its G within (a+2)u. [lo, hi] and the canonical own/β are each
// within 4u of the exact bracket and own/β, the bracket holding −ln u_i
// within err; and the bound arithmetic within 4u. δ is more than twice
// all of it, so a decided receiver is decided as the canonical division
// would, whichever order the straight sum added in.
//
// The head does not branch on activity: it multiplies each sender's gain by
// mask (1 active, 0 not) and reads its uniform at pos, the sentinel slot
// u[len(idx)] for an inactive one. A zero or masked gain adds exactly 0,
// since negLogCoarse is finite for any bits; an infinite gain masked to 0
// gives NaN, which fails the reject test, and the straight sum decides.
//
// The coarse tier is skipped when β, ν, lo or hi is not a normal positive
// number at most MaxFloat64/2: there the relative bounds above do not
// hold, or a sum that overflows could reject wrongly. A bound that turns
// NaN fails both tests and moves on too. The head changes only how many
// terms are summed, never a result.
type Counter struct {
	plan           // shared with every Counter of the same Plan; read only
	pos  []int32   // pos[j] is link j's place in idx, or len(idx) if inactive
	mask []float64 // mask[j] is 1 if link j is active, 0 if not
	u    []float64 // u[k] is the uniform of sender idx[k]; u[len(idx)] the sentinel
	idx  []int     // the active links, in increasing order

	fallbacks int // receivers the coarse tier left to the canonical loop
}

// NewCounter returns a Counter for m: NewPlan(m).Counter(), for a caller
// that counts on m from one goroutine.
func NewCounter(m *network.Matrix) *Counter { return NewPlan(m).Counter() }

// Matrix returns the gain matrix the Plan or Counter decides on.
func (p *plan) Matrix() *network.Matrix { return p.m }

// orderBuckets is how many binary orders of magnitude below a row's
// strongest gain sortRows tells apart; weaker and zero gains share the last
// bucket.
const orderBuckets = 64

// sortRows fills head, each receiver's first w other senders by decreasing
// mean gain up to a factor of two — a counting sort on the binary exponent
// below the row's largest, stable in sender index — and positive.
func (p *plan) sortRows(w int) {
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
				bucket[min(top-exponent(g), orderBuckets-1)]++
			}
		}
		start := 0
		for b, size := range bucket {
			bucket[b] = start
			start += size
		}
		dst := p.head[i*w : (i+1)*w]
		for j, g := range row {
			if j != i {
				b := min(top-exponent(g), orderBuckets-1)
				if bucket[b] < w {
					dst[bucket[b]] = int32(j)
				}
				bucket[b]++
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
// largest float64, the domain of the coarse tier's operands. The cap keeps
// a sum that overflows to +Inf a valid reason to reject: the interference
// it bounds is then above MaxFloat64·(1 − 2⁻⁹), and own/β below it.
func inDomain(x float64) bool { return x >= minNormal && x <= math.MaxFloat64/2 }

// Count draws one Rayleigh realization for the links with active[i] set and
// returns how many of them reach SINR β. If ok is not nil (length m.N), it
// also reports each link's decision: ok[i] is set when link i is active and
// reaches β. It consumes the stream exactly as SampleSINRsInto with
// RayleighGains does; a zero gain draws nothing and a negative one panics.
func (c *Counter) Count(active []bool, beta float64, src *rng.Source, ok []bool) int {
	if ok != nil && len(ok) != c.m.N {
		panic(fmt.Sprintf("fading: %d success flags for %d links", len(ok), c.m.N))
	}
	clear(ok)
	return c.decide(active, -1, beta, src, ok)
}

// Counterfactual draws one Rayleigh realization at receiver i and reports
// whether link i would reach SINR β if it transmitted alongside the links
// with active[j] set. It draws as the canonical loop would for i alone:
// i's own signal first, then each active sender j ≠ i in increasing index
// order, a zero gain drawing nothing and a negative one panicking. It
// decides as Count does, through the same tiers.
func (c *Counter) Counterfactual(active []bool, i int, beta float64, src *rng.Source) bool {
	if i < 0 || i >= c.m.N {
		panic(fmt.Sprintf("fading: link %d of %d", i, c.m.N))
	}
	return c.decide(active, i, beta, src, nil) == 1
}

// decide draws and decides one realization: every link of active, or only
// link with when with is not negative, as a receiver of the senders of
// active and with. A receiver's uniforms are drawn in index order, or its
// own first when it is with. Each receiver runs through the tiers; decide
// sets ok for those that reach β, when ok is not nil, and returns how many
// did.
func (c *Counter) decide(active []bool, with int, beta float64, src *rng.Source, ok []bool) int {
	m := c.m
	if len(active) != m.N {
		panic(fmt.Sprintf("fading: %d activity flags for %d links", len(active), m.N))
	}
	idx := c.idx[:0]
	for j, a := range active {
		if a || j == with {
			idx = append(idx, j)
		}
	}
	u := c.u[:len(idx)]
	filter := inDomain(beta) && inDomain(m.Noise)
	w := min(HeadSize, m.N-1)
	dense := filter && c.head != nil && 4*len(idx) >= m.N // tried on the head first
	if dense {
		sentinel := int32(len(idx))
		c.u[sentinel] = 0.5 // a typical uniform: only the mask keeps inactive senders out
		for j := range c.pos {
			c.pos[j], c.mask[j] = sentinel, 0
		}
		for k, j := range idx {
			c.pos[j], c.mask[j] = int32(k), 1
		}
	}
	delta := float64(len(idx)+8) * 0x1p-50
	count := 0
	for k, i := range idx {
		if with >= 0 && i != with {
			continue
		}
		row := m.Incoming(i)
		if with >= 0 {
			c.draw(row, i, idx[k:k+1], u[k:k+1], src)
			c.draw(row, i, idx[:k], u[:k], src)
			c.draw(row, i, idx[k+1:], u[k+1:], src)
		} else {
			c.draw(row, i, idx, u, src)
		}
		g := row[i]
		reached, decided := false, false
		if filter {
			l := negLogCoarse(u[k])
			lo, hi := g*(l-coarseErr)/beta, g*(l+coarseErr)/beta
			if inDomain(lo) && inDomain(hi) {
				reject := hi * (1 + delta)
				if decided = dense && c.rejectHead(row, c.head[i*w:(i+1)*w], reject, delta); !decided {
					sum, gains := coarseSum(row, idx, u, k, m.Noise)
					if decided = sum*(1-delta)-coarseErr*gains > reject; !decided {
						reached, decided = accept(sum, gains, lo, delta)
					}
				}
			}
		}
		if !decided {
			c.fallbacks++
			var own float64
			if g != 0 {
				own = -g * math.Log(u[k])
			}
			reached = c.exact(row, i, idx, u, own, beta)
		}
		if reached {
			if ok != nil {
				ok[i] = true
			}
			count++
		}
	}
	return count
}

// draw fills u[k] with the uniform of sender idx[k] at receiver i for every
// k the canonical loop draws one: all of them as one batch when i's row is
// all positive, otherwise those with a nonzero gain, in order.
func (c *Counter) draw(row []float64, i int, idx []int, u []float64, src *rng.Source) {
	if c.positive != nil && c.positive[i] {
		src.FillOpen(u)
		return
	}
	for k, j := range idx {
		if g := row[j]; g != 0 {
			if g < 0 {
				panic(fmt.Sprintf("fading: negative mean gain %g from sender %d at receiver %d", g, j, i))
			}
			u[k] = src.Float64Open()
		}
	}
}

// rejectHead reports whether the coarse lower bound over head's senders,
// inactive ones masked out, exceeds reject after some term.
func (c *Counter) rejectHead(row []float64, head []int32, reject, delta float64) bool {
	mask, pos, u := c.mask, c.pos, c.u
	sum, gains := c.m.Noise, 0.0
	for _, j := range head {
		g := row[j] * mask[j]
		sum += g * negLogCoarse(u[pos[j]])
		gains += g
		if sum*(1-delta)-coarseErr*gains > reject {
			return true
		}
	}
	return false
}

// coarseSum is the coarse tier's straight sum: from noise, it adds
// g_j·ℓ̃(u_k) to sum and g_j to gains for each sender j = idx[k] but the one
// at place skip, the receiver's own, with no test on the way. Where the CPU
// has AVX-512 it runs eight lanes wide, in another order of additions;
// otherwise it adds in index order.
func coarseSum(row []float64, idx []int, u []float64, skip int, noise float64) (sum, gains float64) {
	if sumKernel {
		return coarseSumAVX512(row, idx, u, skip, noise)
	}
	sum = noise
	for k, j := range idx {
		if k != skip {
			g := row[j]
			sum += g * negLogCoarse(u[k])
			gains += g
		}
	}
	return sum, gains
}

// accept settles a receiver whose straight sum did not reject it: it
// succeeds if the upper bound, with coarseErr per unit gain, clears lo, and
// is left to the canonical loop otherwise.
func accept(sum, gains, lo, delta float64) (ok, decided bool) {
	if sum*(1+delta)+coarseErr*gains < lo*(1-delta) {
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
