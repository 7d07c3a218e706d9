// Package load holds the measurement arithmetic of the benchmark suite:
// percentiles and spreads over timing samples, an open-loop request
// generator that times every request from the moment it was due, and the
// bracket-and-bisect search for the highest arrival rate a service sustains
// within a latency limit.
//
// It knows nothing about the system under test; the workloads in the parent
// package supply the requests.
package load

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest sample with at least a q share of the samples at or below it.
// xs is not modified. It returns NaN for an empty slice.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// small epsilon keeps q·n from rounding up across an integer (0.99·1000 is
// 990.0000000000001 in floating point).
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Beyond returns how many of n samples lie strictly beyond the nearest-rank
// q-quantile.
func Beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// Supports reports whether n samples put at least ten beyond the q-quantile —
// the rule for reporting a tail percentile at all (p99 needs 1000 samples).
func Supports(n int, q float64) bool { return Beyond(n, q) >= 10 }

// Median returns the median of xs, averaging the two middle samples of an
// even-length slice. It returns NaN for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points dividing xs into quarters, by the
// same "exclusive" interpolation as Python's statistics.quantiles(xs, n=4).
// It needs at least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile range of xs as a share of its median — the
// run-to-run noise measure a regression bound must exceed.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	return (q3 - q1) / q2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// PoissonArrivals returns the due times of a Poisson process of the given
// rate (per second) over [0, d), drawn from a stream fixed by seed.
func PoissonArrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	src := rand.New(rand.NewPCG(seed, 0x6c6f6164))
	var due []time.Duration
	for t := 0.0; ; {
		t += src.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// Clock is the generator's time source: offsets from the start of a run.
// Tests substitute a fake whose time moves only when told to.
type Clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

// RealClock is wall-clock time measured from the moment it was created.
type RealClock struct{ start time.Time }

// NewRealClock starts a wall clock at zero.
func NewRealClock() *RealClock { return &RealClock{start: time.Now()} }

// Now returns the time since the clock started.
func (c *RealClock) Now() time.Duration { return time.Since(c.start) }

// SleepUntil blocks until the clock reads at least t.
func (c *RealClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		sleep(d)
	}
}

// Sample is one request's timing, as clock offsets.
type Sample struct {
	Due, Sent, Done time.Duration
	// Lag is how late the generator itself sent the request: the send time
	// minus the later of the due time and the moment its sender became free.
	// Time spent waiting for a busy sender is backlog, not lag.
	Lag time.Duration
	// Issued is false for a request still unsent at the cutoff.
	Issued bool
	// OK is the handler's verdict on an issued request.
	OK bool
}

// Latency is the time from when the request was due to when it completed,
// so a stall is charged to every request that had to wait behind it.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// OpenLoop sends one request per due time (ascending offsets) from at most
// senders goroutines, each sending one request at a time, and returns one
// Sample per due time. Requests are claimed in due order; a sender that
// falls behind sends the next request at once. Requests not yet sent when
// the clock passes cutoff are left unissued: overload shows as unsent work
// rather than as a run that never ends. do performs request i and reports
// whether it succeeded; it must be safe to call from several goroutines.
func OpenLoop(clock Clock, due []time.Duration, senders int, cutoff time.Duration, do func(i int) bool) []Sample {
	samples := make([]Sample, len(due))
	for i, d := range due {
		samples[i].Due = d
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				free := clock.Now()
				clock.SleepUntil(due[i])
				sent := clock.Now()
				if sent > cutoff {
					stopped.Store(true)
					return
				}
				ok := do(i)
				s := &samples[i]
				s.Sent, s.Done, s.Issued, s.OK = sent, clock.Now(), true, ok
				s.Lag = sent - max(due[i], free)
			}
		}()
	}
	wg.Wait()
	return samples
}

// BacklogMax returns the largest number of requests that were due but not
// yet sent at any send time — how far the senders fell behind the schedule.
func BacklogMax(samples []Sample) int {
	most := 0
	for i, s := range samples {
		if !s.Issued {
			continue
		}
		dueBy := sort.Search(len(samples), func(j int) bool { return samples[j].Due > s.Sent })
		if b := dueBy - (i + 1); b > most {
			most = b
		}
	}
	return most
}

// Step summarizes one fixed-rate phase against a latency limit.
type Step struct {
	Rate      float64
	Arrivals  int
	Completed int
	// P99 is the nearest-rank p99 latency over all arrivals, counting a
	// request that was never sent or failed as missing every limit (shown
	// as the largest Duration).
	P99  time.Duration
	Pass bool
}

// missed stands for the latency of a request that never completed.
const missed = time.Duration(math.MaxInt64)

// MinCompletion is the share of arrivals a passing step must complete; a
// lower share means the backlog was still growing when the step ended.
const MinCompletion = 0.97

// Judge evaluates one step's samples against limit.
func Judge(rate float64, samples []Sample, limit time.Duration) Step {
	st := Step{Rate: rate, Arrivals: len(samples)}
	if len(samples) == 0 {
		return st
	}
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(missed)
		if s.Issued && s.OK {
			st.Completed++
			lat[i] = float64(s.Latency())
		}
	}
	st.P99 = missed
	if p99 := Percentile(lat, 0.99); p99 < float64(missed) {
		st.P99 = time.Duration(p99)
	}
	st.Pass = st.P99 <= limit && float64(st.Completed) >= MinCompletion*float64(st.Arrivals)
	return st
}

// Knee returns the highest rate at which pass holds, to a relative
// resolution res. It brackets upward from start in steps of ×growth until a
// rate fails, then bisects between the last passing and the first failing
// rate until they are within a factor 1+res. If start itself fails it
// brackets downward instead. At most maxSteps rates are tried; when the
// budget runs out the highest passing rate seen is returned. The result is 0
// when no tried rate passed.
func Knee(start, growth, res float64, maxSteps int, pass func(rate float64) bool) (knee float64, steps int) {
	try := func(rate float64) bool {
		steps++
		return pass(rate)
	}
	lo, hi := 0.0, 0.0
	if try(start) {
		lo = start
		for hi == 0 && steps < maxSteps {
			if r := lo * growth; try(r) {
				lo = r
			} else {
				hi = r
			}
		}
	} else {
		hi = start
		for lo == 0 && steps < maxSteps {
			if r := hi / growth; try(r) {
				lo = r
			} else {
				hi = r
			}
		}
	}
	for lo > 0 && hi > 0 && hi/lo > 1+res && steps < maxSteps {
		if mid := (lo + hi) / 2; try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, steps
}
