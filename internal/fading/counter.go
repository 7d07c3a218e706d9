package fading

import (
	"fmt"
	"math"
	"slices"

	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
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
// with NewCounter, or once per goroutine with Plan.Counter. Then either
// call Count once per realization of a fresh transmit set, or Prepare once
// per set and Realize once per realization of it; Counterfactual asks, on
// the prepared set, what one link would have got. It reads its Plan's head
// and flags, shared and never written, and owns its scratch, so none of
// these allocates once the draw scratch has grown to its bound on the first
// batched Realize; a Counter is not safe for concurrent use, but Counters of
// one Plan are independent.
//
// Prepare does the per-set work: it lists the active links, notes whether
// every active receiver's row is all positive, and on dense sets places
// every sender for the head. Realize then draws. When every active row is
// all positive, it draws the uniforms of whole receivers in one FillOpen per
// chunk, as many receivers as fit in chunkFloats (at least one); otherwise
// it draws each receiver's before deciding it. The canonical stream is
// receiver-major in index order either way, so both leave it at the same
// place with the same values.
//
// Realize returns exactly what the canonical computation returns — draw
// every exponential S(j,i) = −S̄(j,i)·ln u in increasing (receiver, sender)
// order, sum the interference from the noise up in index order, compare
// S(i,i)/interference with β — and leaves the stream where it leaves it. It
// gets there with less work: each receiver runs through up to two tiers,
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
// u[len(idx)] of the receiver's uniforms for an inactive one. That slot
// holds whatever the scratch held: in a chunk it is the next receiver's
// first uniform, after the chunk's last receiver a stale one. A zero or
// masked gain adds exactly 0, since negLogCoarse is finite for any bits;
// an infinite gain masked to 0 gives NaN, which fails the reject test, and
// the straight sum decides.
//
// The coarse tier is skipped when β, lo or hi is not a normal positive
// number at most MaxFloat64/2, or ν is neither that nor an exact 0: there
// the relative bounds above do not hold, or a sum that overflows could
// reject wrongly. ν = 0 keeps them: ν only starts the sums, and an exact 0
// adds no rounding to any of them. (A product that underflows errs by at
// most 2⁻¹⁰⁷⁵ = u·minNormal whatever ν is, so by at most u·lo, and both
// tests compare against lo ≤ hi.) A receiver with no interferer has sum
// and gains 0, so accept takes it, lo being positive, as the canonical
// loop takes it at SINR +Inf. A bound that turns NaN fails both tests and
// moves on too. The head changes only how many terms are summed, never a
// result.
type Counter struct {
	plan           // shared with every Counter of the same Plan; read only
	pos  []int32   // pos[j] is link j's place in idx, or len(idx) if inactive
	mask []float64 // mask[j] is 1 if link j is active, 0 if not
	u    []float64 // u[k] is the uniform of sender idx[k]; u[len(idx)] the sentinel
	idx  []int     // the prepared set's active links, in increasing order

	batched bool // every row of the prepared set is all positive
	dense   bool // the prepared set is tried on the head first

	fallbacks int // receivers the coarse tier left to the canonical loop
}

// NewCounter returns a Counter for m: NewPlan(m).Counter(), for a caller
// that counts on m from one goroutine.
func NewCounter(m *network.Matrix) *Counter { return NewPlan(m).Counter() }

// chunkFloats bounds the draw scratch of a batched Realize: it holds the
// uniforms of as many whole receivers as fit, plus the last one's sentinel.
const chunkFloats = 4096

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

// coarseDomain reports whether the coarse tier may decide at threshold beta
// and noise: beta in its domain, and noise too or an exact 0.
func coarseDomain(beta, noise float64) bool {
	return inDomain(beta) && (noise == 0 || inDomain(noise))
}

// Count draws one Rayleigh realization for the links with active[i] set and
// returns how many of them reach SINR β: Prepare(active), then Realize. If
// ok is not nil (length m.N), it also reports each link's decision: ok[i]
// is set when link i is active and reaches β. It consumes the stream
// exactly as SampleSINRsInto with RayleighGains does; a zero gain draws
// nothing and a negative one panics. The set stays prepared.
func (c *Counter) Count(active []bool, beta float64, src *rng.Source, ok []bool) int {
	c.Prepare(active)
	return c.Realize(beta, src, ok)
}

// Prepare makes the links with active[i] set the Counter's transmit set, for
// any number of Realize and Counterfactual calls until the next Prepare or
// Count. It lists the active links, notes whether every one of their rows is
// all positive, and on dense sets places each sender for the head.
func (c *Counter) Prepare(active []bool) {
	m := c.m
	if len(active) != m.N {
		panic(fmt.Sprintf("fading: %d activity flags for %d links", len(active), m.N))
	}
	c.idx = sinr.ActiveList(active, c.idx)
	c.batched = c.positive != nil
	for k := 0; c.batched && k < len(c.idx); k++ {
		c.batched = c.positive[c.idx[k]]
	}
	c.dense = c.head != nil && 4*len(c.idx) >= m.N
	if c.dense {
		sentinel := int32(len(c.idx))
		for j := range c.pos {
			c.pos[j], c.mask[j] = sentinel, 0
		}
		for k, j := range c.idx {
			c.pos[j], c.mask[j] = int32(k), 1
		}
	}
}

// Realize draws one Rayleigh realization of the prepared set and returns
// how many of its links reach SINR β, setting ok[i] for each of them when
// ok is not nil (length m.N). When every active row is all positive, the
// uniforms of whole receivers are drawn together, one FillOpen per chunk of
// at most chunkFloats; otherwise each receiver's are drawn before it is
// decided. Either way the stream is the canonical receiver-major one.
func (c *Counter) Realize(beta float64, src *rng.Source, ok []bool) int {
	m, idx := c.m, c.idx
	if ok != nil && len(ok) != m.N {
		panic(fmt.Sprintf("fading: %d success flags for %d links", len(ok), m.N))
	}
	clear(ok)
	a := len(idx)
	filter := coarseDomain(beta, m.Noise)
	delta := float64(a+8) * 0x1p-50
	per := 1 // receivers per chunk
	if c.batched && a > 0 {
		if len(c.u) < min(a*a+1, chunkFloats) {
			c.u = make([]float64, min(m.N*m.N+1, chunkFloats))
		}
		per = (len(c.u) - 1) / a
	}
	count := 0
	for start := 0; start < a; start += per {
		end := min(start+per, a)
		if c.batched {
			src.FillOpen(c.u[:(end-start)*a])
		}
		for k := start; k < end; k++ {
			i := idx[k]
			row, u := m.Incoming(i), c.u[(k-start)*a:]
			if !c.batched {
				c.draw(row, i, idx, u[:a], src)
			}
			if c.judge(row, i, k, u[k], u, beta, delta, filter) {
				if ok != nil {
					ok[i] = true
				}
				count++
			}
		}
	}
	return count
}

// Counterfactual draws one Rayleigh realization at receiver i and reports
// whether link i would reach SINR β if it transmitted alongside the
// prepared set. It draws as the canonical loop would for i alone: i's own
// signal first, then each active sender j ≠ i in increasing index order, a
// zero gain drawing nothing and a negative one panicking. It decides as
// Realize does, through the same tiers.
func (c *Counter) Counterfactual(i int, beta float64, src *rng.Source) bool {
	m, idx := c.m, c.idx
	if i < 0 || i >= m.N {
		panic(fmt.Sprintf("fading: link %d of %d", i, m.N))
	}
	row, u := m.Incoming(i), c.u
	self, own := [1]int{i}, [1]float64{}
	c.draw(row, i, self[:], own[:], src)
	skip, links := -1, len(idx)+1
	if k, in := slices.BinarySearch(idx, i); in {
		c.draw(row, i, idx[:k], u[:k], src)
		c.draw(row, i, idx[k+1:], u[k+1:len(idx)], src)
		skip, links = k, len(idx)
	} else {
		c.draw(row, i, idx, u[:len(idx)], src)
	}
	return c.judge(row, i, skip, own[0], u, beta, float64(links+8)*0x1p-50, coarseDomain(beta, m.Noise))
}

// judge decides receiver i of the realization: its own uniform is own, and
// u[k] holds the uniform of each sender idx[k] but the one at place skip,
// the receiver's own or −1, with u[len(idx)] readable as the head's
// sentinel on dense sets. It tries the coarse tier when filter holds and
// otherwise, or if that tier leaves i undecided, the canonical loop.
func (c *Counter) judge(row []float64, i, skip int, own float64, u []float64, beta, delta float64, filter bool) bool {
	g := row[i]
	if filter {
		l := negLogCoarse(own)
		lo, hi := g*(l-coarseErr)/beta, g*(l+coarseErr)/beta
		if inDomain(lo) && inDomain(hi) {
			reject := hi * (1 + delta)
			w := min(HeadSize, c.m.N-1)
			if c.dense && c.rejectHead(row, c.head[i*w:(i+1)*w], u, reject, delta) {
				return false
			}
			sum, gains := coarseSum(row, c.idx, u, skip, c.m.Noise)
			if sum*(1-delta)-coarseErr*gains > reject {
				return false
			}
			if reached, decided := accept(sum, gains, lo, delta); decided {
				return reached
			}
		}
	}
	c.fallbacks++
	var s float64
	if g != 0 {
		s = -g * math.Log(own)
	}
	return c.exact(row, i, c.idx, u, s, beta)
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
// inactive ones masked out, exceeds reject after some term; u is the
// receiver's uniforms, sentinel included.
func (c *Counter) rejectHead(row []float64, head []int32, u []float64, reject, delta float64) bool {
	mask, pos := c.mask, c.pos
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
