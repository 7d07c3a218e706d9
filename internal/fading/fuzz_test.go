package fading

import (
	"math"
	"testing"

	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// FuzzExactSuccessInvariants drives Theorem 1 and Lemma 1 with arbitrary
// seeds, thresholds, probabilities, and noise levels: the exact probability
// must stay in [0, q_i] and inside the Lemma-1 sandwich on every input the
// fuzzer can construct.
func FuzzExactSuccessInvariants(f *testing.F) {
	f.Add(uint64(1), 2.5, 0.5, 4e-7)
	f.Add(uint64(2), 0.1, 1.0, 0.0)
	f.Add(uint64(3), 50.0, 0.01, 1.0)
	f.Add(uint64(42), 1.0, 0.99, 1e-12)
	f.Fuzz(func(t *testing.T, seed uint64, beta, prob, noise float64) {
		if !(beta > 0) || beta > 1e6 || math.IsNaN(beta) {
			t.Skip()
		}
		if math.IsNaN(prob) || prob < 0 || prob > 1 {
			t.Skip()
		}
		if math.IsNaN(noise) || noise < 0 || math.IsInf(noise, 0) {
			t.Skip()
		}
		cfg := network.Figure1Config()
		cfg.N = 8
		cfg.Noise = noise
		net, err := network.Random(cfg, rng.New(seed))
		if err != nil {
			t.Skip()
		}
		m := net.Gains()
		q := UniformProbs(m.N, prob)
		for i := 0; i < m.N; i++ {
			p := ExactSuccess(m, q, beta, i)
			if math.IsNaN(p) || p < 0 || p > q[i]+1e-12 {
				t.Fatalf("Q_%d = %g outside [0, %g] (β=%g ν=%g)", i, p, q[i], beta, noise)
			}
			lo := LowerBound(m, q, beta, i)
			hi := UpperBound(m, q, beta, i)
			if lo > p+1e-12 || p > hi+1e-12 {
				t.Fatalf("bounds [%g,%g] miss Q_%d = %g (β=%g ν=%g)", lo, hi, i, p, beta, noise)
			}
		}
	})
}

// FuzzCountSuccessesMatchesReference checks the counting kernels against
// the kept full-draw references for arbitrary seeds, thresholds, transmitter
// densities, noise levels and one planted gain, on the generated network
// and on a copy with zero-gain entries: the count, every per-link flag,
// every link's counterfactual decision and the final stream positions must
// agree exactly (checkCountSuccesses). One Counter per matrix is reused for the
// drawn set, the full set (tried on its head first) and a single link (no
// head once n > 4). The noise is set on the matrix directly, so negative,
// infinite and NaN levels are exercised too. A positive gain is planted
// from one sender, inactive in the drawn set when any is, into every other
// receiver: huge and infinite gains on a sender the head masks out, and on
// one it sums in the full set.
func FuzzCountSuccessesMatchesReference(f *testing.F) {
	f.Add(uint64(1), 2.5, 0.5, 4e-7, 0.0)
	f.Add(uint64(2), 0.5, 1.0, 0.0, 0.0) // no noise: a lone transmitter reaches +Inf
	f.Add(uint64(3), 50.0, 0.1, 1.0, 0.0)
	f.Add(uint64(4), 2.5, 0.0, 4e-7, 0.0) // nobody transmits
	f.Add(uint64(5), 0.0, 1.0, 0.0, 0.0)  // β = 0: SINR 0 succeeds
	f.Add(uint64(6), math.Inf(1), 1.0, 1e-9, 0.0)
	f.Add(uint64(7), 2.5, 1.0, -1e-3, 0.0) // partial sums start negative
	f.Add(uint64(8), math.NaN(), 0.7, math.Inf(1), 0.0)
	f.Add(uint64(9), 2.5, 0.9, math.NaN(), 0.0)
	f.Add(uint64(10), 2.5, 0.6, math.Inf(-1), 0.0)
	f.Add(uint64(11), 2.5, 0.8, 5e-324, 0.0) // subnormal noise: outside the filter's domain
	f.Add(uint64(12), math.NaN(), 1.0, 4e-7, 0.0)
	f.Add(uint64(13), 2.5, 0.8, 4e-7, math.MaxFloat64) // huge gain: masked to 0, overflows when active
	f.Add(uint64(14), 2.5, 0.8, 4e-7, math.Inf(1))     // masked to NaN on the head
	f.Add(uint64(15), 2.5, 0.5, 0.0, 0.0)              // ν = 0 in the coarse tier, as Figure 2 runs
	f.Add(uint64(16), 0.5, 1.0, 0.0, 0.0)              // ν = 0, every link active: the head and the straight sum
	f.Add(uint64(24), 2.5, 1.0, 0.0, 0.0)              // one link at ν = 0: no interferer, SINR +Inf
	f.Add(uint64(17), 2.5, 0.1, 0.0, 0.0)              // ν = 0, sparse: receivers with no active interferer
	f.Fuzz(func(t *testing.T, seed uint64, beta, density, noise, gain float64) {
		cfg := network.Figure1Config()
		cfg.N = 1 + int(seed%24)
		net, err := network.Random(cfg, rng.New(seed))
		if err != nil {
			t.Skip()
		}
		active := randomActive(rng.New(^seed), cfg.N, density)
		all, one := make([]bool, cfg.N), make([]bool, cfg.N)
		for i := range all {
			all[i] = true
		}
		one[int(seed/24)%cfg.N] = true
		planted := int(seed % uint64(cfg.N))
		for j, on := range active {
			if !on {
				planted = j
				break
			}
		}
		for _, m := range []*network.Matrix{net.Gains(), zeroSomeGains(net.Gains(), int(seed%3))} {
			m.Noise = noise
			if gain > 0 {
				for i := 0; i < m.N; i++ {
					if i != planted {
						m.SetGain(planted, i, gain)
					}
				}
			}
			c := NewCounter(m)
			for _, set := range [][]bool{active, all, one} {
				checkCountSuccesses(t, c, set, beta, seed)
			}
		}
	})
}

// FuzzObservation1 stresses the two analytic inequalities behind Lemma 1
// over their full domains.
func FuzzObservation1(f *testing.F) {
	f.Add(0.5, 0.5)
	f.Add(1.0, 1.0)
	f.Add(1e-9, 0.3)
	f.Fuzz(func(t *testing.T, x, q float64) {
		if math.IsNaN(x) || math.IsNaN(q) {
			t.Skip()
		}
		q = math.Abs(math.Mod(q, 1))
		xUp := math.Abs(math.Mod(x, 1e6))
		if xUp > 0 {
			if lhs, rhs := Observation1Upper(xUp, q); lhs > rhs+1e-12 {
				t.Fatalf("upper inequality fails at x=%g q=%g: %g > %g", xUp, q, lhs, rhs)
			}
		}
		xLo := math.Abs(math.Mod(x, 1))
		if xLo > 0 {
			if lhs, rhs := Observation1Lower(xLo, q); lhs > rhs+1e-12 {
				t.Fatalf("lower inequality fails at x=%g q=%g: %g > %g", xLo, q, lhs, rhs)
			}
		}
	})
}
