package load

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: Percentile must sort
	}
	if got := Percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := Percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	if got := Percentile(xs, 1); got != 1000 {
		t.Errorf("p100 of 1..1000 = %g, want 1000", got)
	}
	if xs[0] != 1000 {
		t.Error("Percentile reordered its input")
	}
	if !math.IsNaN(Percentile(nil, 0.5)) || !math.IsNaN(Median(nil)) {
		t.Error("empty input must give NaN")
	}
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{5000, 0.99, 50, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.99, 0, false},
	} {
		if got := Beyond(tc.n, tc.q); got != tc.beyond {
			t.Errorf("Beyond(%d, %g) = %d, want %d", tc.n, tc.q, got, tc.beyond)
		}
		if got := Supports(tc.n, tc.q); got != tc.ok {
			t.Errorf("Supports(%d, %g) = %v, want %v", tc.n, tc.q, got, tc.ok)
		}
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), whose
// spread the benchmark's acceptance rule is written against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 30, 20, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("Quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %g, want 1 ((8.25-2.75)/5.5)", got)
	}
}

func TestPoissonArrivals(t *testing.T) {
	due := PoissonArrivals(7, 500, 10*time.Second)
	if n := len(due); n < 4700 || n > 5300 {
		t.Fatalf("%d arrivals at 500/s over 10s, want about 5000", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("due times not ascending at %d", i)
		}
	}
	again := PoissonArrivals(7, 500, 10*time.Second)
	for i := range due {
		if again[i] != due[i] {
			t.Fatal("same seed gave different arrivals")
		}
	}
	if other := PoissonArrivals(8, 500, 10*time.Second); other[0] == due[0] && other[1] == due[1] {
		t.Error("different seeds gave the same arrivals")
	}
}

// fakeClock moves only when a sleeper waits past now or a handler advances
// it, so a stall lasts exactly as long as the test says.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// One request stalls for 50ms while requests are due every millisecond. An
// open-loop generator times the requests queued behind the stall from their
// due times, so they carry the stall; timing from the send would hide it.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		service = 100 * time.Microsecond
		stall   = 50 * time.Millisecond
	)
	due := make([]time.Duration, 100)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	clock := &fakeClock{}
	samples := OpenLoop(clock, due, 1, time.Hour, func(i int) bool {
		if i == 10 {
			clock.advance(stall)
		} else {
			clock.advance(service)
		}
		return true
	})
	if got := samples[10].Latency(); got != stall {
		t.Errorf("stalled request latency %v, want %v", got, stall)
	}
	// Request 11 was due at 11ms and sent when the stall ended at 60ms.
	if got, want := samples[11].Latency(), 49*time.Millisecond+service; got != want {
		t.Errorf("request behind the stall: latency %v, want %v", got, want)
	}
	if got := samples[11].Done - samples[11].Sent; got != service {
		t.Errorf("send-to-done of request 11 = %v, want the bare service time %v", got, service)
	}
	for i := 11; i < 60; i++ {
		if samples[i].Latency() <= service {
			t.Errorf("request %d (due %v) does not carry the stall: latency %v", i, due[i], samples[i].Latency())
		}
	}
	// The backlog drains at 0.9ms per request; by request 80 the schedule
	// is met again.
	if got := samples[80].Latency(); got != service {
		t.Errorf("request 80 latency %v, want %v once the backlog drained", got, service)
	}
	for i, s := range samples {
		if !s.Issued || !s.OK {
			t.Fatalf("request %d not completed", i)
		}
		if s.Lag != 0 {
			t.Errorf("request %d: generator lag %v on an exact clock", i, s.Lag)
		}
	}
	if got := BacklogMax(samples); got < 45 || got > 50 {
		t.Errorf("BacklogMax = %d, want the ~49 requests that fell due during the stall", got)
	}
}

func TestOpenLoopCutoffLeavesOverloadUnsent(t *testing.T) {
	due := make([]time.Duration, 100)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	clock := &fakeClock{}
	// Each request takes 2ms against a 1ms schedule: half the work is still
	// queued when the step ends at 100ms.
	samples := OpenLoop(clock, due, 1, 100*time.Millisecond, func(int) bool {
		clock.advance(2 * time.Millisecond)
		return true
	})
	issued := 0
	for _, s := range samples {
		if s.Issued {
			issued++
		}
	}
	if issued < 49 || issued > 52 {
		t.Errorf("%d requests issued before the cutoff, want about 50", issued)
	}
	st := Judge(1000, samples, time.Second)
	if st.Pass || st.P99 != missed {
		t.Errorf("overloaded step judged %+v, want a failing step with unsent work at p99", st)
	}
}

func TestJudge(t *testing.T) {
	samples := make([]Sample, 1000)
	for i := range samples {
		samples[i] = Sample{Due: 0, Done: time.Duration(i+1) * time.Millisecond, Issued: true, OK: true}
	}
	if st := Judge(100, samples, 990*time.Millisecond); !st.Pass || st.P99 != 990*time.Millisecond || st.Completed != 1000 {
		t.Errorf("Judge = %+v, want pass with p99 990ms", st)
	}
	if st := Judge(100, samples, 989*time.Millisecond); st.Pass {
		t.Errorf("p99 above the limit passed: %+v", st)
	}
	// 2% failures: p99 is a miss, and completion is under 97% only at 4%.
	for i := 0; i < 20; i++ {
		samples[i*50].OK = false
	}
	if st := Judge(100, samples, time.Hour); st.Pass || st.P99 != missed {
		t.Errorf("2%% failed requests passed: %+v", st)
	}
}

// mm2 simulates a FIFO queue with two servers, Poisson arrivals at rate and
// exponential service at mu per server, over a horizon of arrivals, and
// returns the samples an open-loop generator with two connections would
// record: a request is sent when a server takes it. Common random numbers
// (unit draws scaled by the rates) make the outcome monotone in rate.
type mm2 struct {
	inter, service []float64
	mu             float64
	horizon        time.Duration
}

func newMM2(seed uint64, mu float64, horizon time.Duration) *mm2 {
	src := rand.New(rand.NewPCG(seed, 2))
	m := &mm2{mu: mu, horizon: horizon}
	for i := 0; i < 100000; i++ {
		m.inter = append(m.inter, src.ExpFloat64())
		m.service = append(m.service, src.ExpFloat64())
	}
	return m
}

func (m *mm2) samples(rate float64) []Sample {
	var out []Sample
	var free [2]float64
	t := 0.0
	for i := range m.inter {
		t += m.inter[i] / rate
		if t >= m.horizon.Seconds() {
			break
		}
		k := 0
		if free[1] < free[0] {
			k = 1
		}
		start := math.Max(t, free[k])
		free[k] = start + m.service[i]/m.mu
		sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
		out = append(out, Sample{
			Due: sec(t), Sent: sec(start), Done: sec(free[k]),
			Issued: start <= m.horizon.Seconds(), OK: true,
		})
	}
	return out
}

func TestKneeFindsTheM2SustainableRate(t *testing.T) {
	const (
		mu    = 1000.0 // per server: capacity 2000/s
		limit = 10 * time.Millisecond
		res   = 0.05
	)
	sim := newMM2(3, mu, 10*time.Second)
	pass := func(rate float64) bool { return Judge(rate, sim.samples(rate), limit).Pass }

	// Reference: scan for the highest passing rate on a 0.5% grid.
	truth := 0.0
	for r := 500.0; r < 2500; r *= 1.005 {
		if pass(r) {
			truth = r
		}
	}
	// A 10ms p99 limit is ten mean service times, which M/M/2 meets up to
	// roughly three quarters of its 2000/s capacity.
	if truth < 0.6*2*mu || truth > 2*mu {
		t.Fatalf("scanned knee %.0f/s, want below the 2000/s capacity and above 1200/s", truth)
	}
	knee, steps := Knee(400, 1.5, res, 20, pass)
	if knee < truth/(1+res)/1.005 || knee > truth*1.005 {
		t.Errorf("Knee = %.0f/s after %d steps, want within %.0f%% below the scanned %.0f/s", knee, steps, res*100, truth)
	}
	if steps > 10 {
		t.Errorf("Knee took %d steps, want ≤ 10 (4 bracketing, ≤ 6 bisecting)", steps)
	}

	// Starting above the knee brackets downward.
	if down, _ := Knee(4000, 1.5, res, 20, pass); down < truth/(1+res)/1.005 || down > truth*1.005 {
		t.Errorf("Knee from above = %.0f/s, want near %.0f/s", down, truth)
	}
	// A budget too small to bisect still returns a passing rate.
	if short, steps := Knee(400, 1.5, res, 3, pass); steps != 3 || !pass(short) {
		t.Errorf("Knee with 3 steps = %.0f/s after %d steps, want a passing rate after 3", short, steps)
	}
	if none, _ := Knee(1e6, 1.5, res, 4, func(float64) bool { return false }); none != 0 {
		t.Errorf("Knee with no passing rate = %g, want 0", none)
	}
}
