package stats

import (
	"math"
	"testing"
	"testing/quick"

	"rayfade/internal/rng"
)

func TestKahanSumExactness(t *testing.T) {
	// Summing 1e7 copies of 0.1 naively drifts; Kahan should be exact to
	// within a few ulps of the true value.
	var k KahanSum
	for i := 0; i < 1e7; i++ {
		k.Add(0.1)
	}
	if got, want := k.Sum(), 1e6; math.Abs(got-want) > 1e-6 {
		t.Fatalf("Kahan sum = %.12f, want %.12f", got, want)
	}
}

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if got := r.Mean(); got != 5 {
		t.Fatalf("Mean = %g", got)
	}
	// Population variance of this classic dataset is 4; sample variance 32/7.
	if got, want := r.Var(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Var = %g, want %g", got, want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", r.Min(), r.Max())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.StdErr() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	r.Add(3)
	if r.Mean() != 3 || r.Var() != 0 {
		t.Fatalf("single sample: mean %g var %g", r.Mean(), r.Var())
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	f := func(seed uint64, naRaw, nbRaw uint8) bool {
		src := rng.New(seed)
		na, nb := int(naRaw%50)+1, int(nbRaw%50)+1
		var all, a, b Running
		for i := 0; i < na; i++ {
			v := src.Normal(10, 3)
			all.Add(v)
			a.Add(v)
		}
		for i := 0; i < nb; i++ {
			v := src.Normal(-5, 7)
			all.Add(v)
			b.Add(v)
		}
		a.Merge(b)
		return a.N() == all.N() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Var()-all.Var()) < 1e-6 &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRunningMergeEmptyCases(t *testing.T) {
	var a, b Running
	a.Merge(b)
	if a.N() != 0 {
		t.Fatal("merge of two empties should stay empty")
	}
	b.Add(5)
	a.Merge(b)
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatalf("merge into empty: n=%d mean=%g", a.N(), a.Mean())
	}
	var c Running
	a.Merge(c)
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merging an empty should be a no-op")
	}
}

func TestCI95(t *testing.T) {
	var r Running
	for i := 0; i < 100; i++ {
		r.Add(float64(i % 2)) // half 0s, half 1s
	}
	// std ≈ 0.5025, stderr ≈ 0.05025, CI95 ≈ 0.0985
	if got := r.CI95(); math.Abs(got-1.96*r.StdErr()) > 1e-15 {
		t.Fatalf("CI95 = %g", got)
	}
	if r.StdErr() < 0.045 || r.StdErr() > 0.055 {
		t.Fatalf("StdErr = %g out of expected band", r.StdErr())
	}
}

func TestSummaryString(t *testing.T) {
	var r Running
	for _, v := range []float64{1, 2, 3} {
		r.Add(v)
	}
	s := r.Summarize()
	if s.N != 3 || s.Mean != 2 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 11} {
		h.Add(v)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under=%d over=%d", h.Under, h.Over)
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
	// v=10 must land in the last bin, not out of range.
	if h.Counts[4] != 2 { // 9.99 and 10
		t.Fatalf("last bin = %d, want 2 (counts %v)", h.Counts[4], h.Counts)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Fatalf("first bin = %d (counts %v)", h.Counts[0], h.Counts)
	}
}

func TestHistogramNaN(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(math.NaN())
	h.Add(5)
	h.Add(math.NaN())
	if h.NaN != 2 {
		t.Fatalf("NaN counter = %d, want 2", h.NaN)
	}
	// NaNs must not leak into any bin or the under/over counters.
	if h.Under != 0 || h.Over != 0 || h.Total() != 1 {
		t.Fatalf("NaNs corrupted bins: under=%d over=%d total=%d counts=%v",
			h.Under, h.Over, h.Total(), h.Counts)
	}
	if h.Counts[2] != 1 {
		t.Fatalf("in-range observation misplaced: counts %v", h.Counts)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLogStar(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {4, 2}, {16, 3}, {65536, 4}, {1e18, 5},
	}
	for _, c := range cases {
		if got := LogStar(c.x); got != c.want {
			t.Fatalf("LogStar(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestLogStarSmallForHugeInputs(t *testing.T) {
	if got := LogStar(math.MaxFloat64); got > 6 {
		t.Fatalf("LogStar(MaxFloat64) = %d, should be tiny", got)
	}
}

func TestTowerLevels(t *testing.T) {
	if got := TowerLevels(0); got != 0 {
		t.Fatalf("TowerLevels(0) = %d", got)
	}
	// b_0 = 0.25 < 1, so even n=1 needs at least one level.
	if got := TowerLevels(1); got < 1 {
		t.Fatalf("TowerLevels(1) = %d", got)
	}
	// The tower grows so fast that realistic n values need only a handful
	// of levels — this is the paper's "log* n is essentially constant".
	for _, n := range []int{100, 10000, 1 << 30} {
		if got := TowerLevels(n); got < 2 || got > 12 {
			t.Fatalf("TowerLevels(%d) = %d, outside plausible band", n, got)
		}
	}
	// Monotone non-decreasing in n.
	prev := 0
	for n := 1; n <= 1e6; n *= 10 {
		l := TowerLevels(n)
		if l < prev {
			t.Fatalf("TowerLevels not monotone at n=%d", n)
		}
		prev = l
	}
}

func TestTowerSequence(t *testing.T) {
	seq := TowerSequence(100)
	if seq[0] != 0.25 {
		t.Fatalf("b_0 = %g", seq[0])
	}
	for i := 1; i < len(seq); i++ {
		want := math.Exp(seq[i-1] / 2)
		if math.Abs(seq[i]-want) > 1e-12 {
			t.Fatalf("b_%d = %g, want exp(b_%d/2) = %g", i, seq[i], i-1, want)
		}
	}
	last := seq[len(seq)-1]
	if last < 100 {
		t.Fatalf("sequence should end at the first value ≥ n, got %g", last)
	}
	if seq[len(seq)-2] >= 100 {
		t.Fatal("sequence overshoots: penultimate value already ≥ n")
	}
}

func TestTowerLevelsMatchesSequence(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 100000} {
		if got, want := TowerLevels(n), len(TowerSequence(n))-1; got != want {
			t.Fatalf("n=%d: TowerLevels=%d, sequence levels=%d", n, got, want)
		}
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries([]float64{0.1, 0.2, 0.3})
	s.Observe(0, 1)
	s.Observe(0, 3)
	s.Observe(2, 10)
	means := s.Means()
	if means[0] != 2 || means[1] != 0 || means[2] != 10 {
		t.Fatalf("Means = %v", means)
	}
	if got := s.ArgmaxMean(); got != 2 {
		t.Fatalf("ArgmaxMean = %d", got)
	}
	if errs := s.StdErrs(); len(errs) != 3 || errs[0] <= 0 {
		t.Fatalf("StdErrs = %v", errs)
	}
}

func TestSeriesMerge(t *testing.T) {
	a := NewSeries([]float64{1, 2})
	b := NewSeries([]float64{1, 2})
	a.Observe(0, 2)
	b.Observe(0, 4)
	b.Observe(1, 6)
	a.Merge(b)
	if got := a.Means(); got[0] != 3 || got[1] != 6 {
		t.Fatalf("merged means = %v", got)
	}
}

func TestSeriesMergePanicsOnGridMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSeries([]float64{1}).Merge(NewSeries([]float64{1, 2}))
}

func TestSeriesArgmaxEmpty(t *testing.T) {
	s := NewSeries(nil)
	if got := s.ArgmaxMean(); got != -1 {
		t.Fatalf("ArgmaxMean on empty series = %d", got)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-15 {
			t.Fatalf("Linspace = %v", xs)
		}
	}
	if xs[len(xs)-1] != 1 {
		t.Fatal("Linspace endpoint not exact")
	}
}

func TestLinspacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Linspace(0, 1, 1)
}

// Property: Running.Mean always lies between Min and Max.
func TestQuickRunningMeanBounded(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		src := rng.New(seed)
		n := int(nRaw%100) + 1
		var r Running
		for i := 0; i < n; i++ {
			r.Add(src.Normal(0, 100))
		}
		return r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9 && r.Var() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRunningAdd(b *testing.B) {
	var r Running
	for i := 0; i < b.N; i++ {
		r.Add(float64(i))
	}
}

func BenchmarkTowerLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TowerLevels(1 << 20)
	}
}
