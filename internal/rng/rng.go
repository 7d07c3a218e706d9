// Package rng provides a small, deterministic, splittable random number
// generator used throughout the simulator.
//
// Every stochastic component of the library draws randomness through an
// explicit *Source. There is no global generator and no wall-clock seeding:
// identical seeds produce identical experiments, which is what makes the
// figure-regeneration harness reproducible. Sources can be split into
// statistically independent child streams, so parallel replications of an
// experiment never contend on a shared generator and never change results
// when the degree of parallelism changes.
//
// The core generator is xoshiro256**, seeded through SplitMix64. Both are
// public-domain algorithms by Blackman and Vigna with excellent statistical
// behaviour and a tiny state (four uint64 words), making a Source cheap to
// copy and split.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random generator. The zero value is not
// valid; create Sources with New or by splitting an existing Source.
//
// A Source is not safe for concurrent use. Split off one child per goroutine
// instead of sharing; splitting is cheap and the children are independent.
//
// The padding fills the struct to one 64-byte cache line. Sources handed to
// parallel workers are allocated back to back (SplitN); unpadded, two would
// share a line and every draw on one core would invalidate the other's.
type Source struct {
	s0, s1, s2, s3 uint64
	_              [32]byte
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand seeds into full generator states, as recommended by
// the xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed. Distinct seeds
// yield streams that are, for all practical purposes, independent.
func New(seed uint64) *Source {
	sm := seed
	s := &Source{}
	s.s0 = splitMix64(&sm)
	s.s1 = splitMix64(&sm)
	s.s2 = splitMix64(&sm)
	s.s3 = splitMix64(&sm)
	// A state of all zeros is the one forbidden state of xoshiro256**.
	// SplitMix64 cannot produce four consecutive zero outputs, but guard
	// anyway so the invariant is locally evident.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
	return s
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

// Split returns a new Source whose stream is independent of the parent's
// future output. The parent advances, so successive Splits give distinct
// children.
func (s *Source) Split() *Source {
	// Re-key a SplitMix64 stream from two parent outputs. Using the
	// parent's raw state directly would correlate parent and child;
	// hashing two outputs through SplitMix64 breaks the linear structure.
	sm := s.Uint64() ^ 0xd2b74407b1ce6e93
	sm += s.Uint64()
	c := &Source{}
	c.s0 = splitMix64(&sm)
	c.s1 = splitMix64(&sm)
	c.s2 = splitMix64(&sm)
	c.s3 = splitMix64(&sm)
	if c.s0|c.s1|c.s2|c.s3 == 0 {
		c.s0 = 1
	}
	return c
}

// SplitN returns n independent child Sources. It is shorthand for calling
// Split n times and is used to hand one stream to each parallel replication.
func (s *Source) SplitN(n int) []*Source {
	children := make([]*Source, n)
	for i := range children {
		children[i] = s.Split()
	}
	return children
}

// Float64 returns a uniform value in the half-open interval [0,1).
func (s *Source) Float64() float64 {
	// Use the top 53 bits; they are the best-scrambled bits of xoshiro256**.
	return float64(s.Uint64()>>11) * 0x1p-53
}

// Float64Open returns a uniform value in the open interval (0,1). It is the
// right primitive for inverse-CDF sampling of distributions whose transform
// is singular at 0 (such as the exponential, via log).
func (s *Source) Float64Open() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return u
		}
	}
}

// FillOpen fills dst with successive Float64Open values. The stream is the
// one len(dst) calls to Float64Open draw; the generator state stays in
// registers for the whole batch instead of being stored after every draw.
// The inner loop redraws only on a zero, which happens once in 2⁵³ draws.
//
// On amd64 CPUs with AVX-512, a vector kernel draws a batch of 16 or more
// in whole vectors of eight, and the Go loop draws the rest. The kernel
// steps the state over a chunk of up to 64 draws, then scrambles and
// converts the chunk eight draws at a time. It writes the state back only
// after a chunk with no zero draw. A chunk that holds a zero is left
// undrawn: the kernel returns with the state at the chunk's start, and the
// Go loop redraws it with the skip. The kernel thus never commits a draw
// the open interval would skip, and it computes each value as Float64Open
// does, so values and stream positions are the same on every CPU.
func (s *Source) FillOpen(dst []float64) {
	n := s.fillOpenVec(dst)
	s.fillOpenGo(dst[n:])
}

// fillOpenGo is FillOpen's portable loop.
func (s *Source) fillOpenGo(dst []float64) {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for k := range dst {
		for {
			result := bits.RotateLeft64(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = bits.RotateLeft64(s3, 45)
			if v := result >> 11; v != 0 {
				dst[k] = float64(v) * 0x1p-53
				break
			}
		}
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	return int(s.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0,bound) using Lemire's
// nearly-divisionless method, which avoids modulo bias.
func (s *Source) boundedUint64(bound uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), bound)
		}
	}
	return hi
}

// UniformRange returns a uniform value in [lo, hi). It panics if hi < lo.
func (s *Source) UniformRange(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: UniformRange called with inverted range [%g,%g)", lo, hi))
	}
	return lo + (hi-lo)*s.Float64()
}

// Bernoulli returns true with probability p. Probabilities outside [0,1] are
// clamped, so Bernoulli(1.2) is always true and Bernoulli(-0.3) never.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// This is the distribution of a Rayleigh-fading received signal strength
// whose deterministic (non-fading) strength is mean. Exp(0) is 0, matching
// the degenerate zero-gain case; negative means panic.
func (s *Source) Exp(mean float64) float64 {
	if mean < 0 {
		panic(fmt.Sprintf("rng: Exp called with negative mean %g", mean))
	}
	if mean == 0 {
		return 0
	}
	return -mean * math.Log(s.Float64Open())
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Marsaglia polar method.
func (s *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Gamma returns a Gamma-distributed value with the given shape and scale
// (mean shape·scale), using the Marsaglia–Tsang squeeze method, with the
// standard shape<1 boost. It panics on non-positive parameters.
func (s *Source) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("rng: Gamma called with shape=%g scale=%g", shape, scale))
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^{1/a}.
		u := s.Float64Open()
		return s.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = s.Normal(0, 1)
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := s.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return scale * d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return scale * d * v
		}
	}
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's multiplication method for small means and a Gaussian
// approximation with continuity correction beyond 256 (where the relative
// approximation error is far below sampling noise). Poisson(0) is 0;
// negative means panic.
func (s *Source) Poisson(mean float64) int {
	if mean < 0 {
		panic(fmt.Sprintf("rng: Poisson called with negative mean %g", mean))
	}
	if mean == 0 {
		return 0
	}
	if mean > 256 {
		v := s.Normal(mean, math.Sqrt(mean))
		n := int(math.Round(v))
		if n < 0 {
			return 0
		}
		return n
	}
	limit := math.Exp(-mean)
	p := 1.0
	n := -1
	for p > limit {
		p *= s.Float64Open()
		n++
	}
	return n
}

// Perm returns a uniformly random permutation of [0,n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Clone returns an exact copy of the Source: the clone and the original
// produce identical future streams. This is useful for replaying a
// stochastic process under two different treatments with common random
// numbers.
func (s *Source) Clone() *Source {
	c := *s
	return &c
}
