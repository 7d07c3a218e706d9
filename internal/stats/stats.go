// Package stats provides the small statistics toolkit the simulation harness
// needs: numerically stable accumulation, summary statistics with confidence
// intervals, histograms, and the iterated-logarithm helpers that appear in
// the paper's O(log* n) bounds.
//
// Nothing here is exotic — the point is that the experiment code never
// hand-rolls averaging, so every reported number in EXPERIMENTS.md carries a
// sample count and a standard error computed the same way.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// KahanSum accumulates float64 values with compensated summation, avoiding
// the error growth of naive accumulation over millions of Monte-Carlo terms.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	y := v - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the current compensated total.
func (k *KahanSum) Sum() float64 { return k.sum }

// Running computes mean and variance in one pass using Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates observation v.
func (r *Running) Add(v float64) {
	if r.n == 0 {
		r.min, r.max = v, v
	} else {
		if v < r.min {
			r.min = v
		}
		if v > r.max {
			r.max = v
		}
	}
	r.n++
	d := v - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (v - r.mean)
}

// Merge combines another accumulator into r, as if every observation seen by
// o had been Added to r. This is how per-worker accumulators from parallel
// replications are reduced.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	r.mean += d * float64(o.n) / float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = n
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance (0 for fewer than two samples).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.Std() / math.Sqrt(float64(r.n))
}

// Min returns the smallest observation (0 if none).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 if none).
func (r *Running) Max() float64 { return r.max }

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func (r *Running) CI95() float64 { return 1.96 * r.StdErr() }

// runningJSON is the serialized form of Running, used by the simulation
// checkpoint files. encoding/json renders float64 in shortest round-trip
// form, so a marshal/unmarshal cycle is bit-exact — a resumed run carries
// precisely the accumulator state of the interrupted one.
type runningJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON serializes the accumulator's full internal state.
func (r Running) MarshalJSON() ([]byte, error) {
	return json.Marshal(runningJSON{N: r.n, Mean: r.mean, M2: r.m2, Min: r.min, Max: r.max})
}

// UnmarshalJSON restores an accumulator serialized by MarshalJSON.
func (r *Running) UnmarshalJSON(data []byte) error {
	var s runningJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if s.N < 0 {
		return fmt.Errorf("stats: Running state has negative n=%d", s.N)
	}
	r.n, r.mean, r.m2, r.min, r.max = s.N, s.Mean, s.M2, s.Min, s.Max
	return nil
}

// Summary is an immutable snapshot of a Running accumulator, convenient for
// reporting.
type Summary struct {
	N           int
	Mean        float64
	Std, StdErr float64
	Min, Max    float64
}

// Summarize snapshots the accumulator.
func (r *Running) Summarize() Summary {
	return Summary{N: r.n, Mean: r.Mean(), Std: r.Std(), StdErr: r.StdErr(), Min: r.min, Max: r.max}
}

// String formats the summary as "mean ± stderr (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.StdErr, s.N)
}

// Mean returns the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var k KahanSum
	for _, v := range vs {
		k.Add(v)
	}
	return k.Sum() / float64(len(vs))
}

// Histogram counts observations into equal-width bins over [Lo, Hi].
type Histogram struct {
	Lo, Hi   float64
	Counts   []int
	Under    int // observations below Lo
	Over     int // observations above Hi
	NaN      int // NaN observations, counted apart from every bin
	binWidth float64
}

// NewHistogram creates a histogram with the given bin count over [lo, hi].
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram with %d bins", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: NewHistogram with empty range [%g,%g]", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins), binWidth: (hi - lo) / float64(bins)}
}

// Add records one observation. NaN observations go to the NaN counter: a
// NaN would fall through every range comparison into the binning arithmetic,
// where float-to-int conversion of NaN is implementation-defined and would
// corrupt an arbitrary bin (or panic on an out-of-range index).
func (h *Histogram) Add(v float64) {
	switch {
	case math.IsNaN(v):
		h.NaN++
	case v < h.Lo:
		h.Under++
	case v > h.Hi:
		h.Over++
	default:
		i := int((v - h.Lo) / h.binWidth)
		if i == len(h.Counts) { // v == Hi lands in the last bin
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// LogStar returns the iterated logarithm log*_2(x): the number of times log2
// must be applied before the value drops to at most 1. LogStar(x) is 0 for
// x ≤ 1. This is the function in the paper's O(log* n) bounds.
func LogStar(x float64) int {
	if math.IsNaN(x) {
		panic("stats: LogStar of NaN")
	}
	n := 0
	for x > 1 {
		x = math.Log2(x)
		n++
		if n > 64 { // unreachable for any finite float64, but fail loudly
			panic("stats: LogStar failed to converge")
		}
	}
	return n
}

// TowerLevels returns the number of levels of the paper's simulation tower
// b_0 = 1/4, b_{k+1} = exp(b_k / 2) that stay strictly below n — the number
// of probability scales Algorithm 1 iterates over. It is Θ(log* n).
func TowerLevels(n int) int {
	if n <= 0 {
		return 0
	}
	levels := 0
	b := 0.25
	for b < float64(n) {
		levels++
		b = math.Exp(b / 2)
		if levels > 128 {
			panic("stats: TowerLevels failed to converge")
		}
	}
	return levels
}

// TowerSequence returns the values b_0 .. b_{k} of the paper's recursion up
// to and including the first value ≥ n.
func TowerSequence(n int) []float64 {
	seq := []float64{0.25}
	for seq[len(seq)-1] < float64(n) {
		seq = append(seq, math.Exp(seq[len(seq)-1]/2))
		if len(seq) > 129 {
			panic("stats: TowerSequence failed to converge")
		}
	}
	return seq
}

// Series aggregates y-observations for an ordered set of x-points, one
// Running accumulator per point. It is the shape of every figure in the
// paper: x is the transmission probability (Figure 1) or the round number
// (Figure 2), y the number of successful transmissions.
type Series struct {
	X   []float64
	Acc []Running
}

// NewSeries creates a series over the given x-points.
func NewSeries(xs []float64) *Series {
	return &Series{X: append([]float64(nil), xs...), Acc: make([]Running, len(xs))}
}

// Observe records y for the i-th x-point.
func (s *Series) Observe(i int, y float64) { s.Acc[i].Add(y) }

// Merge folds another series over the same x grid into s.
func (s *Series) Merge(o *Series) {
	if len(o.Acc) != len(s.Acc) {
		panic("stats: merging series with different x grids")
	}
	for i := range s.Acc {
		s.Acc[i].Merge(o.Acc[i])
	}
}

// Means returns the per-point sample means.
func (s *Series) Means() []float64 {
	ms := make([]float64, len(s.Acc))
	for i := range s.Acc {
		ms[i] = s.Acc[i].Mean()
	}
	return ms
}

// StdErrs returns the per-point standard errors.
func (s *Series) StdErrs() []float64 {
	es := make([]float64, len(s.Acc))
	for i := range s.Acc {
		es[i] = s.Acc[i].StdErr()
	}
	return es
}

// ArgmaxMean returns the index of the x-point with the largest mean
// (the curve's peak). It returns -1 for an empty series.
func (s *Series) ArgmaxMean() int {
	best := -1
	bestV := math.Inf(-1)
	for i := range s.Acc {
		if m := s.Acc[i].Mean(); m > bestV {
			best, bestV = i, m
		}
	}
	return best
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic(fmt.Sprintf("stats: Linspace needs n ≥ 2, got %d", n))
	}
	xs := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
	}
	xs[n-1] = hi
	return xs
}
