package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"

	"rayfade/benchsuite/load"
)

// metricSpec declares one metric. BENCHMARK.json at the repository root
// repeats these declarations; TestDeclarationsMatchBenchmarkJSON keeps the
// two identical.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them from an untraced run (-trace 0); what "one operation"
// means per workload is documented in README.md.
var endToEnd = []metricSpec{
	// Server start, input generation, session upload and cache warm-up, or
	// worker start and discovery: the median of the run's set-ups.
	{"setup_s", "s", "lower", 0.25},
	// Median latency of one operation.
	{"p50_ms", "ms", "lower", 0.25},
	// Serving: requests completed per second with both connections always
	// busy. Batch: operations completed per second.
	{"max_rate", "1/s", "higher", 0.25},
	// Peak live heap after a collection at the pauses between operations.
	{"peak_heap_mb", "MB", "lower", 0.25},
}

// perLayer are the per-layer metrics of a traced run (-trace 1). Every
// workload reports every one: unit costs are measured on the workload's own
// networks and request bodies; shares and counts are 0 for a layer the
// workload's operations never reach.
var perLayer = []metricSpec{
	// Unit costs of one call into each layer, replayed through its public
	// functions on the workload's own inputs.
	{"rng.exp_ns", "ns", "lower", 0},
	{"network.random_ms", "ms", "lower", 0},
	{"network.gains_us", "us", "lower", 0},
	{"sinr.values_us", "us", "lower", 0},
	{"fading.count_successes_us", "us", "lower", 0},
	{"fading.exact_us", "us", "lower", 0},
	{"capacity.greedy_us", "us", "lower", 0},
	{"netio.load_us", "us", "lower", 0},
	{"netio.save_us", "us", "lower", 0},
	{"server.decode_us", "us", "lower", 0},
	{"server.key_us", "us", "lower", 0},
	{"server.marshal_us", "us", "lower", 0},

	// Work per operation.
	{"rng.exp_draws", "count", "lower", 0},
	{"fading.calls", "count", "lower", 0},

	// Attribution: each layer's median share of the operation's median
	// latency on the blocking path, and what no layer explains.
	{"attr.backlog_pct", "%", "lower", 0},
	{"attr.http_pct", "%", "lower", 0},
	{"attr.decode_pct", "%", "lower", 0},
	{"attr.netio_pct", "%", "lower", 0},
	{"attr.key_pct", "%", "lower", 0},
	{"attr.queue_pct", "%", "lower", 0},
	{"attr.network_pct", "%", "lower", 0},
	{"attr.rng_pct", "%", "lower", 0},
	{"attr.fading_pct", "%", "lower", 0},
	{"attr.sinr_pct", "%", "lower", 0},
	{"attr.capacity_pct", "%", "lower", 0},
	{"attr.marshal_pct", "%", "lower", 0},
	{"attr.sim_pct", "%", "lower", 0},
	{"attr.shard_pct", "%", "lower", 0},
	{"attr.dist_pct", "%", "lower", 0},
	{"attr.merge_pct", "%", "lower", 0},
	{"residual_pct", "%", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},

	// Serving layers, read from response headers and /metrics.
	{"server.hit_ratio", "ratio", "higher", 0},
	{"server.shared_ratio", "ratio", "higher", 0},
	{"server.session_evictions", "count", "lower", 0},
	{"loadgen.backlog_max", "count", "lower", 0},
	// p90 over p50 of the untraced fixed-rate stretch: the tail's shape.
	// The tail is not bounded end to end; on a shared machine it follows
	// the host's stalls more than the system.
	{"loadgen.p90_ratio", "ratio", "lower", 0},
	// The highest Poisson rate whose p99 meets the workload's limit with
	// no growing backlog.
	{"loadgen.knee_rate", "1/s", "higher", 0},

	// Fan-out inside sim: Workers=2 against Workers=1.
	{"sim.w2_speedup", "ratio", "higher", 0},
	{"sim.rep_slowdown", "ratio", "lower", 0},
	{"sim.fanout_util", "ratio", "higher", 0},

	// The machine's median slowdown against the reference loop's nominal
	// time (see load.Slowdown), by which every reported time was divided.
	{"host.slowdown", "ratio", "lower", 0},

	// Distribution, from dist.Stats, a timing RoundTripper and the workers'
	// /metrics.
	{"dist.shards", "count", "lower", 0},
	{"dist.attempts_per_shard", "ratio", "lower", 0},
	{"dist.hedged", "count", "lower", 0},
	{"dist.reassigned", "count", "lower", 0},
	{"dist.transfer_kb", "KB", "lower", 0},
	{"dist.worker_util", "ratio", "higher", 0},
}

// result is the last line a run prints, in the format BENCHMARK.json's
// command promises.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome. Workloads record metrics by name; the
// names must be declared in specs.
type report struct {
	specs     []metricSpec
	values    map[string]float64
	attempted int
	failed    int
	// problems are correctness failures: a wrong output, not a slow one.
	problems []string
	// slowdowns are the machine's slowdowns measured at the pauses;
	// heapPeak is the largest live heap seen at a pause, in bytes.
	slowdowns []float64
	heapPeak  float64
}

// pause marks a quiet moment between operations: it collects garbage,
// samples the live heap — what the system keeps resident, not transient
// garbage — and times the reference loop. It returns the factor by which
// to divide a time measured since the previous pause: the mean of the
// machine's slowdowns at its two ends.
func (r *report) pause() float64 {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	r.heapPeak = math.Max(r.heapPeak, float64(live[0].Value.Uint64()))
	now := load.Slowdown()
	r.slowdowns = append(r.slowdowns, now)
	if n := len(r.slowdowns); n > 1 {
		return (r.slowdowns[n-2] + now) / 2
	}
	return now
}

func newReport(specs []metricSpec) *report {
	return &report{specs: specs, values: map[string]float64{}}
}

// set records a metric; naming an undeclared metric is a bug.
func (r *report) set(name string, v float64) {
	for _, s := range r.specs {
		if s.Name == name {
			r.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("benchsuite: metric %q is not declared for this run", name))
}

// setZero records 0 for every declared metric not yet set: the layers this
// workload never reaches.
func (r *report) setZero() {
	for _, s := range r.specs {
		if _, ok := r.values[s.Name]; !ok {
			r.values[s.Name] = 0
		}
	}
}

// problem records a correctness failure.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result checks that every declared metric was measured as a finite number
// and builds the output line.
func (r *report) result() (result, error) {
	out := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, s := range r.specs {
		v, ok := r.values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, s.Name)
			continue
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return out, fmt.Errorf("metrics not measured: %v", missing)
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

// writeTable prints the run's metrics, one per line with unit, for people.
func (r *report) writeTable(w io.Writer) {
	for _, s := range r.specs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", s.Name, r.values[s.Name], s.Unit)
	}
	fmt.Fprintf(w, "  %-28s %14d\n  %-28s %14d\n", "attempted", r.attempted, "failed", r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
}
