package fading

import (
	"fmt"
	"math"

	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// Counter counts Rayleigh successes on one gain matrix. It is the counting
// kernel of the Monte-Carlo experiments: build it once per matrix with
// NewCounter, then call Count once per realization. It owns its scratch, so
// Count does not allocate; a Counter is not safe for concurrent use.
//
// Count returns exactly what the canonical computation returns — draw every
// exponential S(j,i) = −S̄(j,i)·ln u in increasing (receiver, sender) order,
// sum the interference from the noise up in index order, compare
// S(i,i)/interference with β — and leaves the stream where it leaves it. It
// gets there with less work. The uniforms are drawn exactly as the canonical
// computation draws them; then each receiver is decided in three steps:
//
//  1. Filter. The interference is bounded by a cheap sum, ν + Σ g_j·ℓ̃(u_j),
//     where ℓ̃ is negLog, a table-driven −ln u within logErr of the true
//     value. On dense active sets the senders are visited strongest mean
//     gain first, so a failing receiver is usually rejected after a few
//     terms; on sparse ones, and for a Counter without an order, in index
//     order.
//  2. Decide. The receiver fails as soon as a lower bound on the canonical
//     interference exceeds own/β, and succeeds when, after every term, an
//     upper bound is below it. The bounds widen the filter sum by the
//     relative margin δ = (a+8)·2⁻⁵⁰ for a active links, plus logErr times
//     the gains visited. The canonical sum is within (a+4) units of
//     roundoff (u = 2⁻⁵³) of the exact real sum, the filter sum within
//     (2a+4)u of its own plus logErr per unit gain, own/β within u, and the
//     bound arithmetic within 4u; δ = 8(a+8)u is more than twice all of it,
//     so a decided receiver is decided as the canonical division would.
//  3. Fall back. A receiver left undecided runs the canonical index-order
//     loop with math.Log. So does every receiver when β or ν is not a
//     normal, finite, positive number, and any receiver whose own/β is not:
//     there the relative bounds above do not hold. A gain sum that
//     overflows makes both bounds fail, which falls back too.
//
// The visit order changes only how many terms are summed, never a result.
type Counter struct {
	m *network.Matrix
	// order holds, for each receiver i, the other senders strongest mean
	// gain first: row i is order[i*(n-1) : (i+1)*(n-1)]. Nil means every
	// set is visited in index order.
	order []int32
	// positive[i] reports that every gain into receiver i is positive, so
	// its uniforms can be drawn as one batch. Nil means check every gain.
	positive []bool
	pos      []int32   // pos[j] is link j's place in idx, or −1 if inactive
	u        []float64 // u[k] is the uniform of sender idx[k]
	idx      []int     // the active links, in increasing order

	fallbacks int // receivers decided by the canonical loop
}

// NewCounter returns a Counter for m. m's gains must not change while the
// Counter is in use; its noise may, and is read at every Count.
func NewCounter(m *network.Matrix) *Counter {
	n := m.N
	ints := make([]int32, n*max(n-1, 0)+n)
	c := &Counter{
		m:        m,
		order:    ints[: len(ints)-n : len(ints)-n],
		pos:      ints[len(ints)-n:],
		positive: make([]bool, n),
		u:        make([]float64, n),
		idx:      make([]int, 0, n),
	}
	c.sortRows()
	return c
}

// orderBuckets is how many binary orders of magnitude below a row's
// strongest gain sortRows tells apart; weaker and zero gains share the last
// bucket.
const orderBuckets = 64

// sortRows fills order, each receiver's other senders by decreasing mean
// gain up to a factor of two — a counting sort on the binary exponent below
// the row's largest, stable in sender index — and positive. It keeps each
// sender's bucket in pos, which Count overwrites before reading.
func (c *Counter) sortRows() {
	n := c.m.N
	keys := c.pos
	for i := 0; i < n; i++ {
		row := c.m.Incoming(i)
		top, positive := 0, true
		for j, g := range row {
			positive = positive && g > 0
			if j != i {
				top = max(top, exponent(g))
			}
		}
		c.positive[i] = positive
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
		dst := c.order[i*(n-1) : (i+1)*(n-1)]
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

// normal reports whether x is a normal, finite, positive number.
func normal(x float64) bool { return x >= minNormal && x <= math.MaxFloat64 }

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
		for j := range c.pos {
			c.pos[j] = -1
		}
		for k, j := range idx {
			c.pos[j] = int32(k)
		}
	}
	filter := normal(beta) && normal(m.Noise)
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
		var own float64
		if g := row[i]; g != 0 {
			own = -g * math.Log(u[k])
		}
		target := own / beta
		ok, decided := false, false
		if filter && normal(target) {
			if order != nil {
				ok, decided = c.boundOrdered(row, order[i*(m.N-1):(i+1)*(m.N-1)], u, target, delta)
			} else {
				ok, decided = c.boundIndexed(row, i, idx, u, target, delta)
			}
		}
		if !decided {
			c.fallbacks++
			ok = c.exact(row, i, idx, u, own, beta)
		}
		if ok {
			count++
		}
	}
	return count
}

// boundOrdered runs the filter and decide steps for one receiver over the
// senders of visit, strongest first, skipping inactive ones: it reports
// whether the receiver succeeds and whether the bounds settled it.
func (c *Counter) boundOrdered(row []float64, visit []int32, u []float64, target, delta float64) (ok, decided bool) {
	reject := target * (1 + delta)
	sum, gains := c.m.Noise, 0.0
	for _, j := range visit {
		k, g := c.pos[j], row[j]
		if k < 0 || g == 0 {
			continue
		}
		sum += g * negLog(u[k])
		gains += g
		if sum*(1-delta)-logErr*gains > reject {
			return false, true
		}
	}
	return accept(sum, gains, target, delta)
}

// boundIndexed is boundOrdered over the active senders in index order.
func (c *Counter) boundIndexed(row []float64, i int, idx []int, u []float64, target, delta float64) (ok, decided bool) {
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
	return accept(sum, gains, target, delta)
}

// accept settles a receiver whose filter sum over every sender did not
// reject it: it succeeds if the upper bound clears own/β, and is left to
// the canonical loop otherwise.
func accept(sum, gains, target, delta float64) (ok, decided bool) {
	if sum*(1+delta)+logErr*gains < target*(1-delta) {
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
