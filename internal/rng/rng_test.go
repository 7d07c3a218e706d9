package rng

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: same seed diverged: %d vs %d", i, av, bv)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64OpenRange(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		v := s.Float64Open()
		if v <= 0 || v >= 1 {
			t.Fatalf("Float64Open out of (0,1): %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %g too far from 0.5", mean)
	}
}

// TestFillOpenMatchesFloat64Open pins that a batch draw is the stream of
// single draws, values and the draws that follow, including across a zero
// the open interval must skip: a state with s1 = 0 makes the next output
// exactly 0.
func TestFillOpenMatchesFloat64Open(t *testing.T) {
	zero := &Source{s0: 1, s1: 0, s2: 2, s3: 3}
	if zero.Clone().Float64() != 0 {
		t.Fatal("the crafted state does not draw 0 first")
	}
	for _, start := range []*Source{New(7), zero} {
		for _, n := range []int{0, 1, 7, 1000} {
			one, batch := start.Clone(), start.Clone()
			got := make([]float64, n)
			batch.FillOpen(got)
			for k, v := range got {
				if want := one.Float64Open(); v != want {
					t.Fatalf("n=%d draw %d: FillOpen %v, Float64Open %v", n, k, v, want)
				}
			}
			for k := 0; k < 4; k++ {
				if a, b := one.Uint64(), batch.Uint64(); a != b {
					t.Fatalf("n=%d: draw %d after the batch is %d, after single draws %d", n, k, b, a)
				}
			}
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expectation %g", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	s := New(1)
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			s.Intn(n)
		}()
	}
}

func TestExpMeanAndPositivity(t *testing.T) {
	s := New(9)
	const n = 200000
	for _, mean := range []float64{0.1, 1, 5, 1e-7} {
		sum := 0.0
		for i := 0; i < n; i++ {
			v := s.Exp(mean)
			if v < 0 {
				t.Fatalf("Exp(%g) produced negative value %g", mean, v)
			}
			sum += v
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.02 {
			t.Fatalf("Exp(%g) sample mean %g deviates by more than 2%%", mean, got)
		}
	}
}

func TestExpZeroMean(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if v := s.Exp(0); v != 0 {
			t.Fatalf("Exp(0) = %g, want 0", v)
		}
	}
}

func TestExpNegativeMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(-1) did not panic")
		}
	}()
	New(1).Exp(-1)
}

// TestExpDistribution checks the exponential CDF at a few quantiles,
// which catches inverse-transform mistakes a mean test would miss.
func TestExpDistribution(t *testing.T) {
	s := New(13)
	const n = 200000
	mean := 2.0
	var below1, below2 int
	for i := 0; i < n; i++ {
		v := s.Exp(mean)
		if v < mean {
			below1++
		}
		if v < 2*mean {
			below2++
		}
	}
	p1 := float64(below1) / n // should be 1 - e^-1 ≈ 0.6321
	p2 := float64(below2) / n // should be 1 - e^-2 ≈ 0.8647
	if math.Abs(p1-(1-math.Exp(-1))) > 0.01 {
		t.Fatalf("P(X<mean) = %g, want about %g", p1, 1-math.Exp(-1))
	}
	if math.Abs(p2-(1-math.Exp(-2))) > 0.01 {
		t.Fatalf("P(X<2mean) = %g, want about %g", p2, 1-math.Exp(-2))
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(19)
	const n = 200000
	mean, sd := 3.0, 2.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(mean, sd)
		sum += v
		sumSq += (v - mean) * (v - mean)
	}
	if got := sum / n; math.Abs(got-mean) > 0.02 {
		t.Fatalf("Normal mean %g, want %g", got, mean)
	}
	if got := math.Sqrt(sumSq / n); math.Abs(got-sd) > 0.02 {
		t.Fatalf("Normal stddev %g, want %g", got, sd)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(23)
	const n = 100000
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bernoulli(%g) frequency %g", p, got)
		}
	}
	if s.Bernoulli(-0.5) {
		t.Fatal("Bernoulli(-0.5) returned true")
	}
	if !s.Bernoulli(1.5) {
		t.Fatal("Bernoulli(1.5) returned false")
	}
}

func TestPoissonMoments(t *testing.T) {
	s := New(73)
	const n = 100000
	for _, mean := range []float64{0.5, 3, 50, 1000} {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(s.Poisson(mean))
			if v < 0 {
				t.Fatalf("Poisson(%g) negative", mean)
			}
			sum += v
			sumSq += v * v
		}
		m := sum / n
		if math.Abs(m-mean)/mean > 0.03 {
			t.Fatalf("Poisson(%g) mean %g", mean, m)
		}
		variance := sumSq/n - m*m
		if math.Abs(variance-mean)/mean > 0.08 {
			t.Fatalf("Poisson(%g) variance %g, want %g", mean, variance, mean)
		}
	}
}

func TestPoissonEdge(t *testing.T) {
	s := New(1)
	if s.Poisson(0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Poisson(-1) did not panic")
		}
	}()
	s.Poisson(-1)
}

func TestGammaMoments(t *testing.T) {
	s := New(67)
	const n = 200000
	for _, c := range []struct{ shape, scale float64 }{
		{0.5, 2}, {1, 1}, {2, 0.5}, {4, 3},
	} {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := s.Gamma(c.shape, c.scale)
			if v <= 0 {
				t.Fatalf("Gamma(%g,%g) produced non-positive %g", c.shape, c.scale, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		wantMean := c.shape * c.scale
		if math.Abs(mean-wantMean)/wantMean > 0.03 {
			t.Fatalf("Gamma(%g,%g) mean %g, want %g", c.shape, c.scale, mean, wantMean)
		}
		variance := sumSq/n - mean*mean
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(variance-wantVar)/wantVar > 0.08 {
			t.Fatalf("Gamma(%g,%g) var %g, want %g", c.shape, c.scale, variance, wantVar)
		}
	}
}

// Gamma with shape 1 is the exponential distribution: check a quantile.
func TestGammaShapeOneIsExponential(t *testing.T) {
	s := New(71)
	const n = 200000
	below := 0
	for i := 0; i < n; i++ {
		if s.Gamma(1, 2) < 2 {
			below++
		}
	}
	if got, want := float64(below)/n, 1-math.Exp(-1); math.Abs(got-want) > 0.01 {
		t.Fatalf("P(Gamma(1,2)<2) = %g, want %g", got, want)
	}
}

func TestGammaPanics(t *testing.T) {
	for _, c := range [][2]float64{{0, 1}, {-1, 1}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gamma(%g,%g) did not panic", c[0], c[1])
				}
			}()
			New(1).Gamma(c[0], c[1])
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(29)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(31)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Perm first element %d appeared %d times, want about %g", i, c, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(41)
	child := parent.Split()
	// Children must differ from the parent's continuing stream.
	collisions := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("parent and child streams collided %d times", collisions)
	}
}

func TestSplitNDistinct(t *testing.T) {
	parent := New(43)
	children := parent.SplitN(8)
	firsts := map[uint64]bool{}
	for _, c := range children {
		firsts[c.Uint64()] = true
	}
	if len(firsts) != 8 {
		t.Fatalf("SplitN children overlapped: %d distinct first outputs of 8", len(firsts))
	}
}

// TestSplitNChildrenOwnCacheLines pins the padding of Source: the children
// SplitN hands to parallel workers must never share a 64-byte cache line.
func TestSplitNChildrenOwnCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Source{}); size != 64 {
		t.Fatalf("Source is %d bytes, want one 64-byte cache line", size)
	}
	children := New(44).SplitN(16)
	lines := map[uintptr]int{}
	for k, c := range children {
		line := uintptr(unsafe.Pointer(c)) / 64
		if prev, ok := lines[line]; ok {
			t.Fatalf("children %d and %d share cache line %#x", prev, k, line*64)
		}
		lines[line] = k
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(47).Split()
	b := New(47).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestCloneReplays(t *testing.T) {
	s := New(53)
	s.Uint64()
	c := s.Clone()
	for i := 0; i < 100; i++ {
		if s.Uint64() != c.Uint64() {
			t.Fatal("Clone diverged from original")
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(61)
	for i := 0; i < 10000; i++ {
		v := s.UniformRange(20, 40)
		if v < 20 || v >= 40 {
			t.Fatalf("UniformRange(20,40) = %g", v)
		}
	}
}

func TestUniformRangePanicsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UniformRange(2,1) did not panic")
		}
	}()
	New(1).UniformRange(2, 1)
}

// Property: Float64 is always a valid probability and Intn respects bounds,
// across arbitrary seeds.
func TestQuickSeedProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		s := New(seed)
		n := int(nRaw%100) + 1
		v := s.Float64()
		k := s.Intn(n)
		return v >= 0 && v < 1 && k >= 0 && k < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Exp is non-negative for any non-negative mean.
func TestQuickExpNonNegative(t *testing.T) {
	f := func(seed uint64, meanRaw float64) bool {
		mean := math.Abs(meanRaw)
		if math.IsNaN(mean) || math.IsInf(mean, 0) {
			return true
		}
		return New(seed).Exp(mean) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Exp(1)
	}
	_ = sink
}

// BenchmarkFillOpen100 draws one receiver's uniforms at the paper's 100
// links, the batch fading.Counter draws per receiver.
func BenchmarkFillOpen100(b *testing.B) {
	s := New(1)
	dst := make([]float64, 100)
	for i := 0; i < b.N; i++ {
		s.FillOpen(dst)
	}
}

func BenchmarkSplit(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Split()
	}
}
