package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"rayfade/internal/obs"
	"rayfade/internal/stats"
)

// Latency histogram shape: stats.Histogram bins are equal-width, so the
// histogram runs over log10(seconds) — equal-width there is log-spaced in
// time, which is the only useful spacing for latencies that range from
// microseconds (cache hits) to minutes (huge topologies). The range spans
// 1µs to 100s with 4 buckets per decade.
const (
	latLogLo   = -6.0
	latLogHi   = 2.0
	latBuckets = 32
)

// endpointStats aggregates one endpoint's counters. The request tallies are
// obs.Registry counters (named "requests.<endpoint>.<code>"), so the same
// numbers the Prometheus page renders are visible to /debug/obs — the
// Prometheus text is one view over the shared registry, not a private copy.
type endpointStats struct {
	byCode    map[int]*obs.Counter
	latency   *stats.Histogram
	seconds   float64 // total observed, for the _sum series
	count     uint64
	queueWait *stats.Histogram
	waitSec   float64
	waitCount uint64
	shed      *obs.Counter // 429 queue-full rejections, lazily created
}

// Metrics is the daemon's observability surface: per-endpoint request and
// status-code counts, log-spaced latency and queue-wait histograms, and
// gauges sampled at render time (queue depth, in-flight jobs, cache
// occupancy). It renders in the Prometheus text exposition format using only
// the stdlib.
type Metrics struct {
	mu        sync.Mutex
	reg       *obs.Registry
	endpoints map[string]*endpointStats

	// counters are free-standing named counters (no endpoint/code labels)
	// registered via Counter, e.g. the shard-completion tally.
	counters map[string]*obs.Counter

	// gauges are sampled lazily at render time so Metrics has no coupling
	// to the pool and cache beyond these closures.
	gauges map[string]func() float64

	// build identity, rendered as the rayschedd_build_info gauge when set
	// (SetBuildInfo). Mirrors the /healthz identity fields so scrape-side
	// joins and the health endpoint can never disagree.
	buildVersion    string
	buildInstance   string
	buildGoMaxProcs int
}

// NewMetrics returns an empty registry backed by a private obs.Registry.
func NewMetrics() *Metrics {
	return NewMetricsWithRegistry(obs.NewRegistry())
}

// NewMetricsWithRegistry returns a Metrics whose counters live in reg, so
// other views of the registry (the /debug/obs endpoint) see the same
// tallies. A nil reg behaves like NewMetrics.
func NewMetricsWithRegistry(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		reg:       reg,
		endpoints: make(map[string]*endpointStats),
		counters:  make(map[string]*obs.Counter),
		gauges:    make(map[string]func() float64),
	}
}

// Registry exposes the backing obs.Registry.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// SetBuildInfo records the daemon identity rendered as the
// rayschedd_build_info gauge (constant value 1; the labels carry the
// information, following the Prometheus build_info convention).
func (m *Metrics) SetBuildInfo(version, instance string, gomaxprocs int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buildVersion = version
	m.buildInstance = instance
	m.buildGoMaxProcs = gomaxprocs
}

// Gauge registers a named gauge sampled every time the registry renders.
func (m *Metrics) Gauge(name string, sample func() float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gauges[name] = sample
}

// Counter registers (or returns the existing) free-standing counter rendered
// under the given Prometheus series name. The counter lives in the backing
// obs.Registry under the same name, so /debug/obs sees the same tally.
func (m *Metrics) Counter(name string) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = m.reg.Counter(name)
		m.counters[name] = c
	}
	return c
}

// stats returns (creating on first use) the per-endpoint aggregate. Callers
// hold m.mu.
func (m *Metrics) stats(endpoint string) *endpointStats {
	es, ok := m.endpoints[endpoint]
	if !ok {
		es = &endpointStats{
			byCode:    make(map[int]*obs.Counter),
			latency:   stats.NewHistogram(latLogLo, latLogHi, latBuckets),
			queueWait: stats.NewHistogram(latLogLo, latLogHi, latBuckets),
		}
		m.endpoints[endpoint] = es
	}
	return es
}

// clampLog maps a positive duration in seconds into the histogram's
// log10 domain.
func clampLog(seconds float64) float64 {
	lg := math.Log10(seconds)
	if lg < latLogLo {
		lg = latLogLo
	}
	if lg > latLogHi {
		lg = latLogHi
	}
	return lg
}

// quantileLevels are the latency quantiles exported per endpoint, chosen to
// match the RED-dashboard convention (median, tail, extreme tail).
var quantileLevels = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5},
	{"0.95", 0.95},
	{"0.99", 0.99},
}

// histQuantile inverts a log-spaced histogram at quantile q ∈ (0,1],
// returning seconds. The rank is located in the cumulative bucket counts
// and interpolated linearly within its bucket in the log10 domain (the
// domain the buckets are equal-width in), then mapped back through 10^x —
// the standard histogram_quantile estimate, adapted to log spacing.
// Observations folded into Under/Over clamp to the domain edges. 0 when the
// histogram is empty.
func histQuantile(h *stats.Histogram, q float64) float64 {
	total := uint64(h.Under) + uint64(h.Over)
	for _, c := range h.Counts {
		total += uint64(c)
	}
	if total == 0 {
		return 0
	}
	// 1-based rank of the ceil(q·N)-th smallest observation.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank <= uint64(h.Under) {
		return math.Pow(10, h.Lo)
	}
	cum := uint64(h.Under)
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if rank <= cum+uint64(c) {
			lo := h.Lo + float64(i)*width
			frac := float64(rank-cum) / float64(c)
			return math.Pow(10, lo+frac*width)
		}
		cum += uint64(c)
	}
	return math.Pow(10, h.Hi)
}

// Observe records one completed request: its endpoint, HTTP status, and
// wall-clock duration in seconds.
func (m *Metrics) Observe(endpoint string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	es := m.stats(endpoint)
	c, ok := es.byCode[code]
	if !ok {
		c = m.reg.Counter(fmt.Sprintf("requests.%s.%d", endpoint, code))
		es.byCode[code] = c
	}
	c.Add(1)
	es.count++
	if seconds > 0 && !math.IsNaN(seconds) {
		es.seconds += seconds
		// Clamp into the histogram's domain so Under/Over stay empty and
		// every observation lands in a renderable bucket.
		es.latency.Add(clampLog(seconds))
	}
}

// ObserveShed records one request rejected at the door because the worker
// queue was full — the load the daemon deliberately refused. Rendered as
// rayschedd_shed_requests_total and mirrored in the obs registry as
// "shed.<endpoint>".
func (m *Metrics) ObserveShed(endpoint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	es := m.stats(endpoint)
	if es.shed == nil {
		es.shed = m.reg.Counter("shed." + endpoint)
	}
	es.shed.Add(1)
}

// ObserveQueueWait records how long one request waited for a pool worker.
func (m *Metrics) ObserveQueueWait(endpoint string, seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	es := m.stats(endpoint)
	es.waitSec += seconds
	es.waitCount++
	if seconds > 0 {
		es.queueWait.Add(clampLog(seconds))
	}
}

// summaries returns the RED view of every endpoint that has completed a
// request, sorted by endpoint: the same counts and quantiles WriteTo renders
// as rayschedd_requests_total and rayschedd_request_duration_quantile.
func (m *Metrics) summaries() []EndpointSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []EndpointSummary{}
	for ep, es := range m.endpoints {
		sum := EndpointSummary{Endpoint: ep,
			P50: histQuantile(es.latency, 0.5),
			P95: histQuantile(es.latency, 0.95),
			P99: histQuantile(es.latency, 0.99),
		}
		for code, c := range es.byCode {
			sum.Requests += uint64(c.Load())
			if code >= 400 {
				sum.Errors += uint64(c.Load())
			}
		}
		if sum.Requests > 0 {
			out = append(out, sum)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Endpoint < out[b].Endpoint })
	return out
}

// WriteTo renders the registry in the Prometheus text format. Output order
// is deterministic (endpoints, codes, and gauges sorted) so scrapes and
// golden tests are stable.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	p := func(format string, args ...any) error {
		k, err := fmt.Fprintf(w, format, args...)
		n += int64(k)
		return err
	}

	eps := make([]string, 0, len(m.endpoints))
	for ep := range m.endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)

	if err := p("# HELP rayschedd_requests_total Completed requests by endpoint and status code.\n# TYPE rayschedd_requests_total counter\n"); err != nil {
		return n, err
	}
	for _, ep := range eps {
		es := m.endpoints[ep]
		codes := make([]int, 0, len(es.byCode))
		for c := range es.byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			if err := p("rayschedd_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, es.byCode[c].Load()); err != nil {
				return n, err
			}
		}
	}

	if err := p("# HELP rayschedd_request_duration_seconds Request latency (log-spaced buckets).\n# TYPE rayschedd_request_duration_seconds histogram\n"); err != nil {
		return n, err
	}
	for _, ep := range eps {
		es := m.endpoints[ep]
		h := es.latency
		width := (latLogHi - latLogLo) / float64(latBuckets)
		cum := uint64(h.Under) // sub-1µs observations fold into the first bucket
		for i, c := range h.Counts {
			cum += uint64(c)
			le := math.Pow(10, latLogLo+float64(i+1)*width)
			if err := p("rayschedd_request_duration_seconds_bucket{endpoint=%q,le=\"%.3g\"} %d\n", ep, le, cum); err != nil {
				return n, err
			}
		}
		cum += uint64(h.Over)
		if err := p("rayschedd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum); err != nil {
			return n, err
		}
		if err := p("rayschedd_request_duration_seconds_sum{endpoint=%q} %g\n", ep, es.seconds); err != nil {
			return n, err
		}
		if err := p("rayschedd_request_duration_seconds_count{endpoint=%q} %d\n", ep, es.count); err != nil {
			return n, err
		}
	}

	// Derived latency quantiles, one gauge series per endpoint that has
	// recorded at least one positive-duration observation — dashboards read
	// these directly instead of re-deriving quantiles from the cumulative
	// buckets above. Gauges, not summaries: they are recomputed from the
	// full histogram at every scrape.
	qHeader := false
	for _, ep := range eps {
		es := m.endpoints[ep]
		if histQuantile(es.latency, 0.5) == 0 {
			continue
		}
		if !qHeader {
			if err := p("# HELP rayschedd_request_duration_quantile Request latency quantiles in seconds, derived from the log-spaced histogram at scrape time.\n# TYPE rayschedd_request_duration_quantile gauge\n"); err != nil {
				return n, err
			}
			qHeader = true
		}
		for _, lvl := range quantileLevels {
			if err := p("rayschedd_request_duration_quantile{endpoint=%q,quantile=%q} %g\n", ep, lvl.label, histQuantile(es.latency, lvl.q)); err != nil {
				return n, err
			}
		}
	}

	// Build identity: constant-1 gauge whose labels mirror /healthz, the
	// join key for cluster-wide scrapes. Rendered only once SetBuildInfo has
	// run, so bare Metrics (and the seed golden outputs) are unchanged.
	if m.buildInstance != "" || m.buildVersion != "" {
		if err := p("# HELP rayschedd_build_info Daemon identity; constant 1, the labels carry the information.\n# TYPE rayschedd_build_info gauge\nrayschedd_build_info{version=%q,instance=%q,gomaxprocs=\"%d\"} 1\n",
			m.buildVersion, m.buildInstance, m.buildGoMaxProcs); err != nil {
			return n, err
		}
	}

	// Shed-request series appear only for endpoints that have actually shed
	// load, following the queue-wait precedent: quiet deployments (and the
	// seed golden outputs) render unchanged.
	shedHeader := false
	for _, ep := range eps {
		es := m.endpoints[ep]
		if es.shed == nil || es.shed.Load() == 0 {
			continue
		}
		if !shedHeader {
			if err := p("# HELP rayschedd_shed_requests_total Requests rejected with 429 because the worker queue was full.\n# TYPE rayschedd_shed_requests_total counter\n"); err != nil {
				return n, err
			}
			shedHeader = true
		}
		if err := p("rayschedd_shed_requests_total{endpoint=%q} %d\n", ep, es.shed.Load()); err != nil {
			return n, err
		}
	}

	// Queue-wait series appear only for endpoints that have recorded at
	// least one wait, so deployments that never exercise the pool (and the
	// seed golden outputs) render unchanged.
	headerDone := false
	for _, ep := range eps {
		es := m.endpoints[ep]
		if es.waitCount == 0 {
			continue
		}
		if !headerDone {
			if err := p("# HELP rayschedd_queue_wait_seconds Time requests spent queued for a pool worker (log-spaced buckets).\n# TYPE rayschedd_queue_wait_seconds histogram\n"); err != nil {
				return n, err
			}
			headerDone = true
		}
		h := es.queueWait
		width := (latLogHi - latLogLo) / float64(latBuckets)
		cum := uint64(h.Under)
		for i, c := range h.Counts {
			cum += uint64(c)
			le := math.Pow(10, latLogLo+float64(i+1)*width)
			if err := p("rayschedd_queue_wait_seconds_bucket{endpoint=%q,le=\"%.3g\"} %d\n", ep, le, cum); err != nil {
				return n, err
			}
		}
		cum += uint64(h.Over)
		if err := p("rayschedd_queue_wait_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum); err != nil {
			return n, err
		}
		if err := p("rayschedd_queue_wait_seconds_sum{endpoint=%q} %g\n", ep, es.waitSec); err != nil {
			return n, err
		}
		if err := p("rayschedd_queue_wait_seconds_count{endpoint=%q} %d\n", ep, es.waitCount); err != nil {
			return n, err
		}
	}

	cnames := make([]string, 0, len(m.counters))
	for name := range m.counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		if err := p("# TYPE %s counter\n%s %d\n", name, name, m.counters[name].Load()); err != nil {
			return n, err
		}
	}

	names := make([]string, 0, len(m.gauges))
	for name := range m.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := p("# TYPE %s gauge\n%s %g\n", name, name, m.gauges[name]()); err != nil {
			return n, err
		}
	}
	return n, nil
}
