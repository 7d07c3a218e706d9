package fading

import (
	"math"
	"slices"
	"testing"

	"rayfade/internal/rng"
)

// checkPrepared prepares active once on c and realizes it r times; it
// asserts that every realization's count and flags equal those of a
// one-shot Count on a fresh Counter of the same matrix and the decisions
// of referenceSampleSINRs, each drawing from its own clone of the stream,
// and that all three leave the stream in the same state. The caller's
// active is cleared after Prepare, so a Realize that read it instead of the
// prepared set would count nobody. c's draw scratch is NaN-filled before
// each realization, so a read of a slot no draw wrote shows up as a
// mismatch.
func checkPrepared(t *testing.T, c *Counter, active []bool, beta float64, seed uint64, r int) {
	t.Helper()
	m := c.m
	set := slices.Clone(active)
	c.Prepare(active)
	clear(active)
	defer copy(active, set)
	one := NewCounter(m)
	src := rng.New(seed)
	shot, ref := src.Clone(), src.Clone()
	got, want := make([]bool, m.N), make([]bool, m.N)
	for k := 0; k < r; k++ {
		for j := range c.u {
			c.u[j] = math.NaN()
		}
		n := c.Realize(beta, src, got)
		if w := one.Count(set, beta, shot, want); n != w || !slices.Equal(got, want) {
			t.Fatalf("n=%d β=%g seed=%d realization %d: prepared %d %v, one-shot Count %d %v", m.N, beta, seed, k, n, got, w, want)
		}
		w := 0
		for i, v := range referenceSampleSINRs(m, set, ref) {
			if reached := set[i] && v >= beta; reached != got[i] {
				t.Fatalf("n=%d β=%g seed=%d realization %d: link %d prepared %v, reference %v", m.N, beta, seed, k, i, got[i], reached)
			} else if reached {
				w++
			}
		}
		if n != w {
			t.Fatalf("n=%d β=%g seed=%d realization %d: prepared %d, reference %d", m.N, beta, seed, k, n, w)
		}
	}
	if x, y, z := src.Uint64(), shot.Uint64(), ref.Uint64(); x != y || x != z {
		t.Fatalf("n=%d β=%g seed=%d: after %d realizations the prepared, one-shot and reference streams differ", m.N, beta, seed, r)
	}
}

// TestPreparedSetMatchesCounts pins a prepared set realized many times to
// as many one-shot Counts and to the reference: on random matrices and
// sets, on the empty and the full set, at n = 1, on sets whose draws fit
// one chunk (a² ≤ chunkFloats) and on sets that take several, and on a
// matrix with one zero gain into a receiver, whose sets take the
// per-receiver draws when that receiver is active.
func TestPreparedSetMatchesCounts(t *testing.T) {
	forSumPaths(t, func(t *testing.T) {
		for _, n := range []int{1, 2, 7, 40, 64, 70, 100} {
			for _, zero := range []bool{false, true} {
				m := randomMatrix(t, uint64(300+n), n)
				if zero && n > 1 {
					m.SetGain(n-1, 0, 0)
				}
				c := NewCounter(m)
				setup := rng.New(uint64(400 + n))
				for _, density := range []float64{0, 0.3, 0.5, 0.9, 1} {
					active := randomActive(setup, n, density)
					for _, beta := range []float64{0.5, 2.5} {
						checkPrepared(t, c, active, beta, setup.Uint64(), 4)
					}
				}
			}
		}
	})
}

// TestPreparedChunking pins how Realize batches its draws: one set of
// every active row all positive is batched, and its scratch, grown once,
// holds whole receivers up to chunkFloats; a zero gain into an active
// receiver turns batching off, and one into an inactive receiver does not.
func TestPreparedChunking(t *testing.T) {
	m := randomMatrix(t, 31, 100)
	c := NewCounter(m)
	all := make([]bool, 100)
	for i := range all {
		all[i] = true
	}
	c.Prepare(all)
	if !c.batched || !c.dense {
		t.Fatalf("full set: batched %v, dense %v; want both", c.batched, c.dense)
	}
	c.Realize(2.5, rng.New(1), nil)
	if len(c.u) != chunkFloats {
		t.Fatalf("full set: draw scratch %d floats, want %d", len(c.u), chunkFloats)
	}
	grown := &c.u[0]
	c.Count(randomActive(rng.New(2), 100, 0.5), 2.5, rng.New(3), nil)
	if &c.u[0] != grown {
		t.Error("a second batched set grew the draw scratch again")
	}
	m.SetGain(5, 9, 0)
	c = NewCounter(m)
	set := make([]bool, 100)
	set[5], set[9] = true, true
	c.Prepare(set)
	if c.batched {
		t.Error("a set with a zero gain into an active receiver is batched")
	}
	set[9], set[10] = false, true
	c.Prepare(set)
	if !c.batched {
		t.Error("a zero gain into an inactive receiver turned batching off")
	}
}
