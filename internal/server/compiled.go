package server

import (
	"sync"
	"sync/atomic"

	"rayfade/internal/fading"
	"rayfade/internal/network"
)

// compiled is a topology ready for the compute paths: the parsed network,
// its mean-gain matrix S̄ and, when memoized, the success counter's Plan on
// it. S̄ depends only on the topology and its powers (fading is the only
// per-slot randomness), so one compiled topology serves every request on
// it, and a memoized one is shared by concurrent requests on pool workers.
// That is safe because every compute path only reads it: capacity, latency,
// transform and the fading closed forms read the matrix, estimates count
// with their own Counter of the shared Plan, and powercontrol builds its
// own second matrix for the powers it certifies (TestComputeOnlyReadsCompiled
// runs every path and compares the matrix bit for bit).
type compiled struct {
	net  *network.Network
	m    *network.Matrix
	plan *fading.Plan // nil unless memoized
}

// counter returns a fresh Counter on c's matrix: scratch on the shared Plan
// when there is one, a Counter of its own otherwise.
func (c *compiled) counter() *fading.Counter {
	if c.plan != nil {
		return c.plan.Counter()
	}
	return fading.NewCounter(c.m)
}

// compiledBudget bounds the bytes of memoized compiled topologies. The memo
// lives on the session entries, so each entry may hold at most
// compiledBudget / MaxSessions bytes (see compiledBytes): 512 KiB, about 200
// links, at the default 128 sessions. A larger topology is compiled per
// request, as every topology was before the memo.
const compiledBudget = 64 << 20

// compiledBytes is the memo footprint of an n-link compiled topology: 8
// bytes of S̄ and 4 of the Plan's visit order per link pair.
func compiledBytes(n int) int64 { return 12 * int64(n) * int64(n) }

// memo is the compiled-topology memo of one session entry: built at most
// once, lazily, by the first by-ref request computed on the entry.
type memo struct {
	once sync.Once
	c    atomic.Pointer[compiled]
}

// memoStats tallies the compiled-topology memo. Every compute on a topology
// counts once: a hit used a compiled topology it did not build, a miss found
// none within the byte cap (by ref, it built one; inline, it compiled its
// own), and a skip was over the per-entry cap and compiled its own. builds
// counts the compiled topologies built into the memo.
type memoStats struct {
	hits, misses, builds, skips atomic.Uint64
}

// compile returns the compiled topology a computation on t reads. byRef
// reports that t is a session entry the request named by topology_ref: its
// memo is built on first use, once, under the entry's own once and never
// under the session LRU lock, so concurrent first uses build it a single
// time and other sessions stay available meanwhile. An inline t only
// consults the memo of the session registered under its digest, if any; it
// never builds one, so inline traffic cannot grow the memo or register a
// ref. compile runs on a pool worker, inside the request's deadline.
func (s *Server) compile(t *topology, byRef bool) *compiled {
	if compiledBytes(t.net.N()) > s.memoCap {
		s.memo.skips.Add(1)
		return &compiled{net: t.net, m: t.net.Gains()}
	}
	if !byRef {
		if e, ok := s.sessions.peek(refOf(t.digest)); ok {
			if c := e.memo.c.Load(); c != nil {
				s.memo.hits.Add(1)
				return c
			}
		}
		s.memo.misses.Add(1)
		return &compiled{net: t.net, m: t.net.Gains()}
	}
	built := false
	t.memo.once.Do(func() {
		m := t.net.Gains()
		t.memo.c.Store(&compiled{net: t.net, m: m, plan: fading.NewPlan(m)})
		built = true
	})
	if built {
		s.memo.misses.Add(1)
		s.memo.builds.Add(1)
	} else {
		s.memo.hits.Add(1)
	}
	return t.memo.c.Load()
}

// memoBytes is the memo footprint of the resident sessions whose compiled
// topology is built.
func (s *Server) memoBytes() int64 {
	var total int64
	s.sessions.each(func(t *topology) {
		if t.memo.c.Load() != nil {
			total += compiledBytes(t.net.N())
		}
	})
	return total
}
