package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"rayfade/benchsuite/load"
	"rayfade/internal/netio"
	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/rng"
	"rayfade/internal/server"
	"rayfade/internal/sinr"
)

// The serving workloads: open-loop Poisson traffic from one process, over
// at most two loopback connections, against one rayschedd handler with its
// default configuration (two pool workers, 256-entry response cache, 128
// sessions).

// kind is a request type of the traffic mix.
type kind int

const (
	estimateInline kind = iota
	estimateRef
	scheduleRef
	uploadTopology
)

func (k kind) String() string {
	return [...]string{"estimate-inline", "estimate-ref", "schedule-ref", "upload"}[k]
}

// request is one generated request with what its checks need to know.
type request struct {
	kind kind
	path string
	body []byte
	topo *topology
	// key numbers the distinct bodies of serve-hot, whose replies must be
	// byte-identical per key (inline and ref bodies of one topology share a
	// key); -1 elsewhere.
	key     int
	seed    uint64
	samples int
	alg     string
	beta    float64
}

// serveSpec fixes one serving workload: its arrival rate for the
// latency phase, the p99 limit of the knee search, and how to start and
// warm a daemon for it. The rates are at most half the knee measured when
// the benchmark was defined, and are not recalibrated.
type serveSpec struct {
	name  string
	rate  float64
	limit time.Duration
	setup func(ctx context.Context, seed uint64, d *daemon) (*traffic, error)
}

var (
	serveHotSpec  = serveSpec{name: "serve-hot", rate: 800, limit: 25 * time.Millisecond, setup: setupHot}
	serveColdSpec = serveSpec{name: "serve-cold", rate: 70, limit: 250 * time.Millisecond, setup: setupCold}
)

const (
	// setupRepeats is how many times a run sets up, reporting the median.
	setupRepeats = 3
	// minFixedArrivals keeps the fixed-rate phase long enough that its
	// p99, printed, has ten requests beyond it.
	minFixedArrivals = 1050
	// kneeSteps bounds the knee search.
	kneeSteps = 7
)

// traffic is a warmed daemon and the request mix to send it.
type traffic struct {
	d     *daemon
	topos []topology
	next  func() (request, error)
	// first holds the first reply body per serve-hot key.
	first map[int][]byte
	// nets caches each topology parsed from its document, as the daemon
	// parses it; checks and replays use it.
	nets map[*topology]*network.Network
}

func newTraffic(d *daemon) *traffic {
	return &traffic{d: d, first: map[int][]byte{}, nets: map[*topology]*network.Network{}}
}

func (tf *traffic) parsed(t *topology) (*network.Network, error) {
	if net, ok := tf.nets[t]; ok {
		return net, nil
	}
	net, err := netio.Load(bytes.NewReader(t.canon))
	if err != nil {
		return nil, err
	}
	tf.nets[t] = net
	return net, nil
}

// warm sends reqs one at a time and checks every reply.
func (tf *traffic) warm(ctx context.Context, reqs []request) error {
	for _, req := range reqs {
		r := tf.d.post(ctx, req.path, req.body, "")
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d, %v: %.200s", req.kind, r.status, r.err, r.body)
		}
		if err := tf.check(req, r); err != nil {
			return fmt.Errorf("warm-up %s: %w", req.kind, err)
		}
	}
	return nil
}

func (tf *traffic) register(ctx context.Context, topos []topology) error {
	for i := range topos {
		req := request{kind: uploadTopology, path: "/v1/topology", body: topos[i].canon, topo: &topos[i], key: -1}
		if err := tf.warm(ctx, []request{req}); err != nil {
			return err
		}
	}
	return nil
}

const (
	hotBodies   = 16
	hotSamples  = 1000
	hotInline   = 0.75
	coldPinned  = 8
	coldSamples = 200
)

// setupHot registers 16 topologies and warms the cache with one estimate
// per topology, so every later request, inline or by ref, is a hit.
func setupHot(ctx context.Context, seed uint64, d *daemon) (*traffic, error) {
	tf := newTraffic(d)
	topos, err := newTopologies(seed, "serve-hot/topologies", hotBodies)
	if err != nil {
		return nil, err
	}
	tf.topos = topos
	if err := tf.register(ctx, topos); err != nil {
		return nil, err
	}
	mix := newRand(seed, "serve-hot/mix")
	inline := make([]request, hotBodies)
	byRef := make([]request, hotBodies)
	for k := range topos {
		t := &topos[k]
		est := estimateRequest{Network: t.canon, Samples: hotSamples, Seed: 1 + mix.Uint64N(1<<40)}
		body, err := json.Marshal(est)
		if err != nil {
			return nil, err
		}
		inline[k] = request{kind: estimateInline, path: "/v1/estimate", body: body, topo: t, key: k, seed: est.Seed, samples: hotSamples}
		est.Network, est.TopologyRef = nil, t.ref
		if body, err = json.Marshal(est); err != nil {
			return nil, err
		}
		byRef[k] = request{kind: estimateRef, path: "/v1/estimate", body: body, topo: t, key: k, seed: est.Seed, samples: hotSamples}
		if err := tf.warm(ctx, []request{inline[k], byRef[k]}); err != nil {
			return nil, err
		}
	}
	tf.next = func() (request, error) {
		k := mix.IntN(hotBodies)
		if mix.Float64() < hotInline {
			return inline[k], nil
		}
		return byRef[k], nil
	}
	return tf, nil
}

// setupCold registers the pinned sessions and warms the code paths with a
// few requests of the mix. Every request of the mix misses the cache: fresh
// seeds, fresh betas, fresh topologies.
func setupCold(ctx context.Context, seed uint64, d *daemon) (*traffic, error) {
	tf := newTraffic(d)
	topos, err := newTopologies(seed, "serve-cold/sessions", coldPinned)
	if err != nil {
		return nil, err
	}
	tf.topos = topos
	if err := tf.register(ctx, topos); err != nil {
		return nil, err
	}
	mix := newRand(seed, "serve-cold/mix")
	fresh := rng.New(streamSeed(seed, "serve-cold/uploads"))
	nextSeed := streamSeed(seed, "serve-cold/seeds")>>24 | 1
	tf.next = func() (request, error) {
		t := &topos[mix.IntN(coldPinned)]
		u := mix.Float64()
		var req request
		var doc any
		switch {
		case u < 0.75: // 55% estimate by ref, 20% inline
			nextSeed++
			est := estimateRequest{TopologyRef: t.ref, Samples: coldSamples, Seed: nextSeed}
			req = request{kind: estimateRef, path: "/v1/estimate", topo: t, key: -1, seed: est.Seed, samples: coldSamples}
			if u >= 0.55 {
				est.Network, est.TopologyRef = t.canon, ""
				req.kind = estimateInline
			}
			doc = est
		case u < 0.95:
			alg := "greedy"
			if mix.IntN(2) == 1 {
				alg = "weighted"
			}
			sched := scheduleRequest{TopologyRef: t.ref, Algorithm: alg, Beta: 2 + mix.Float64()}
			req = request{kind: scheduleRef, path: "/v1/schedule", topo: t, key: -1, alg: alg, beta: sched.Beta}
			doc = sched
		default:
			nt, err := newTopology(fresh)
			if err != nil {
				return request{}, err
			}
			return request{kind: uploadTopology, path: "/v1/topology", body: nt.canon, topo: &nt, key: -1}, nil
		}
		body, err := json.Marshal(doc)
		req.body = body
		return req, err
	}
	warmup := make([]request, 8)
	for i := range warmup {
		if warmup[i], err = tf.next(); err != nil {
			return nil, err
		}
	}
	return tf, tf.warm(ctx, warmup)
}

// check verifies one successful reply.
func (tf *traffic) check(req request, r reply) error {
	switch req.kind {
	case estimateInline, estimateRef:
		var e estimateResponse
		if err := json.Unmarshal(r.body, &e); err != nil {
			return fmt.Errorf("estimate reply: %w", err)
		}
		if e.Links != links || e.Seed != req.seed || e.Samples != req.samples || e.Beta != 2.5 || e.Prob != 0.5 {
			return fmt.Errorf("estimate reply for seed %d, %d samples answers links %d seed %d samples %d beta %g prob %g",
				req.seed, req.samples, e.Links, e.Seed, e.Samples, e.Beta, e.Prob)
		}
		// Six standard errors: a correct estimator fails this about once in
		// 5e8 replies, about 1e-4 per run.
		if tol := 6 * math.Max(e.Stderr, 1e-3); math.Abs(e.Mean-e.Exact) > tol {
			return fmt.Errorf("estimate mean %g is %g from the exact %g, beyond 6 standard errors (%g)",
				e.Mean, math.Abs(e.Mean-e.Exact), e.Exact, tol)
		}
		if req.key >= 0 {
			if first, ok := tf.first[req.key]; !ok {
				tf.first[req.key] = r.body
			} else if !bytes.Equal(first, r.body) {
				return fmt.Errorf("estimate reply for body %d differs from its first reply", req.key)
			}
		}
	case scheduleRef:
		var s scheduleResponse
		if err := json.Unmarshal(r.body, &s); err != nil {
			return fmt.Errorf("schedule reply: %w", err)
		}
		if s.Algorithm != req.alg || s.Beta != req.beta || s.Links != links || s.Size != len(s.Set) {
			return fmt.Errorf("schedule reply %s beta %g links %d size %d/%d for %s beta %g",
				s.Algorithm, s.Beta, s.Links, s.Size, len(s.Set), req.alg, req.beta)
		}
		net, err := tf.parsed(req.topo)
		if err != nil {
			return err
		}
		for _, i := range s.Set {
			if i < 0 || i >= links {
				return fmt.Errorf("schedule set holds link %d of %d", i, links)
			}
		}
		if !sinr.Feasible(net.Gains(), s.Set, s.Beta) {
			return fmt.Errorf("%s schedule %v is not SINR-feasible at beta %g", s.Algorithm, s.Set, s.Beta)
		}
	case uploadTopology:
		var t topologyResponse
		if err := json.Unmarshal(r.body, &t); err != nil {
			return fmt.Errorf("topology reply: %w", err)
		}
		if t.TopologyRef != req.topo.ref || t.Links != links {
			return fmt.Errorf("topology reply ref %q links %d, want %q and %d", t.TopologyRef, t.Links, req.topo.ref, links)
		}
	}
	return nil
}

// phase is one stretch of open-loop traffic, or several joined.
type phase struct {
	reqs    []request
	replies []reply
	samples []load.Sample
	ids     []string
	// factor[i] is the correction of request i's times (see report.pause);
	// set by stretches.
	factor []float64
}

// run sends the due times' requests and stops sending at cutoff. Requests
// are generated before the clock starts, so the generator only sends.
func (tf *traffic) run(ctx context.Context, name string, due []time.Duration, cutoff time.Duration) (*phase, error) {
	ph := &phase{reqs: make([]request, len(due)), replies: make([]reply, len(due)), ids: make([]string, len(due))}
	for i := range due {
		req, err := tf.next()
		if err != nil {
			return nil, err
		}
		ph.reqs[i] = req
		ph.ids[i] = name + "-" + strconv.Itoa(i)
	}
	ph.samples = load.OpenLoop(load.NewRealClock(), due, connections, cutoff, func(i int) bool {
		r := tf.d.post(ctx, ph.reqs[i].path, ph.reqs[i].body, ph.ids[i])
		ph.replies[i] = r
		return r.err == nil && r.status == http.StatusOK
	})
	return ph, ctx.Err()
}

// verify counts the phase's requests and checks every reply.
func (tf *traffic) verify(rep *report, ph *phase) {
	for i, s := range ph.samples {
		if !s.Issued {
			continue
		}
		rep.attempted++
		r := ph.replies[i]
		if !s.OK {
			rep.failed++
			if rep.failed <= 5 {
				fmt.Fprintf(os.Stderr, "benchsuite: %s request %s failed: status %d, %v: %.200s\n",
					ph.reqs[i].kind, ph.ids[i], r.status, r.err, r.body)
			}
			continue
		}
		if err := tf.check(ph.reqs[i], r); err != nil {
			rep.failed++
			if len(rep.problems) < 5 {
				rep.problem("%s request %s: %v", ph.reqs[i].kind, ph.ids[i], err)
			}
		}
	}
}

// latencies returns the completed requests' latencies from their due
// times, corrected and as measured, and the generator lags, in
// milliseconds.
func (ph *phase) latencies() (lat, raw, lag []float64) {
	for i, s := range ph.samples {
		if s.Issued && s.OK {
			lat = append(lat, ms(s.Latency())/ph.factor[i])
			raw = append(raw, ms(s.Latency()))
			lag = append(lag, ms(s.Lag))
		}
	}
	return lat, raw, lag
}

// stretches sends due's requests as parts stretches with a pause after
// each, so a drift in the machine's speed is corrected stretch by stretch,
// verifies each stretch and joins them into one phase. Unless keep is set,
// the joined phase holds only the timings: the live heap sampled at the
// pauses should not hold the benchmark's requests and replies. It also
// returns the largest backlog of a stretch.
func (tf *traffic) stretches(ctx context.Context, rep *report, name string, due []time.Duration, parts int, keep bool) (*phase, int, error) {
	joined := &phase{}
	backlog := 0
	rep.pause()
	for k := 0; k < parts; k++ {
		part := due[k*len(due)/parts : (k+1)*len(due)/parts]
		shifted := make([]time.Duration, len(part))
		for i, d := range part {
			shifted[i] = d - part[0]
		}
		ph, err := tf.run(ctx, name+strconv.Itoa(k), shifted, shifted[len(shifted)-1]+time.Second)
		if err != nil {
			return nil, 0, err
		}
		f := rep.pause()
		tf.verify(rep, ph)
		if keep {
			joined.reqs = append(joined.reqs, ph.reqs...)
			joined.replies = append(joined.replies, ph.replies...)
			joined.ids = append(joined.ids, ph.ids...)
		}
		joined.samples = append(joined.samples, ph.samples...)
		for range ph.samples {
			joined.factor = append(joined.factor, f)
		}
		backlog = max(backlog, load.BacklogMax(ph.samples))
	}
	return joined, backlog, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// fixedArrivals returns the Poisson due times of the fixed-rate phase: those
// within d, extended to the first minFixedArrivals when d holds fewer.
func fixedArrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	s := streamSeed(seed, "arrivals/fixed")
	need := time.Duration(2 * minFixedArrivals / rate * float64(time.Second))
	if due := load.PoissonArrivals(s, rate, max(d, need)); len(due) > minFixedArrivals {
		n := minFixedArrivals
		for n < len(due) && due[n] < d {
			n++
		}
		return due[:n]
	}
	return load.PoissonArrivals(s, rate, 4*need)[:minFixedArrivals]
}

// setupServe sets a serving workload up setupRepeats times, each on a fresh
// daemon, and keeps the last. It returns the median set-up time in
// seconds, corrected like every time (see report.pause).
func setupServe(ctx context.Context, rep *report, spec serveSpec, seed uint64, cfg server.Config) (*traffic, float64, error) {
	var tf *traffic
	var times []float64
	rep.pause()
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		d := startDaemon(cfg)
		next, err := spec.setup(ctx, seed, d)
		if err != nil {
			d.close()
			if tf != nil {
				tf.d.close()
			}
			return nil, 0, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		sec := time.Since(t).Seconds()
		times = append(times, sec/rep.pause())
		if tf != nil {
			tf.d.close()
		}
		tf = next
	}
	return tf, load.Median(times), nil
}

// fixedParts is how many stretches the fixed-rate phase runs as (see
// stretches).
const fixedParts = 8

// tracedParts is the number of stretches of each traced-run phase.
const tracedParts = 4

// saturationChunk is how many requests the saturation phase generates at a
// time.
const saturationChunk = 512

// runServe measures a serving workload: latency at the fixed rate, then the
// rate the daemon sustains with both connections always busy.
func runServe(spec serveSpec) func(context.Context, runConfig, *report) error {
	return func(ctx context.Context, cfg runConfig, rep *report) error {
		tf, setupS, err := setupServe(ctx, rep, spec, cfg.seed, server.Config{})
		if err != nil {
			return err
		}
		defer tf.d.close()
		rep.set("setup_s", setupS)

		// A discarded stretch at the fixed rate first: connections, pools
		// and the collector's pacing settle before anything is timed.
		warm, err := tf.run(ctx, "warm", load.PoissonArrivals(streamSeed(cfg.seed, "arrivals/warm"), spec.rate, 3*time.Second), 4*time.Second)
		if err != nil {
			return err
		}
		tf.verify(rep, warm)

		start := time.Now()
		fixed, backlog, err := tf.stretches(ctx, rep, "fixed", fixedArrivals(cfg.seed, spec.rate, cfg.budget(0.6)), fixedParts, false)
		if err != nil {
			return err
		}
		lat, raw, lag := fixed.latencies()
		if !load.Supports(len(lat), 0.99) {
			return fmt.Errorf("%s: %d completed requests, want at least 1000 so the printed p99 has ten beyond it", spec.name, len(lat))
		}
		rep.set("p50_ms", load.Median(lat))
		fmt.Fprintf(os.Stderr, "benchsuite: %s %g/s for %s: %d requests; p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (%d beyond) corrected; p50 %.3f ms, p90 %.3f ms, p99 %.3f ms as measured; generator lag p99 %.3f ms, backlog max %d\n",
			spec.name, spec.rate, time.Since(start).Round(time.Millisecond), len(lat),
			load.Median(lat), load.Percentile(lat, 0.9), load.Percentile(lat, 0.99), load.Beyond(len(lat), 0.99),
			load.Median(raw), load.Percentile(raw, 0.9), load.Percentile(raw, 0.99), load.Percentile(lag, 0.99), backlog)

		// Saturation: every request due at once, so each connection sends
		// its next request as soon as the last one is answered.
		busy, completed := 0.0, 0
		deadline := time.Now().Add(max(cfg.budget(1)-time.Since(start), 2*time.Second))
		for n := 0; time.Until(deadline) > 0; n++ {
			left := time.Until(deadline)
			ph, err := tf.run(ctx, "saturate"+strconv.Itoa(n), make([]time.Duration, saturationChunk), left)
			if err != nil {
				return err
			}
			last := time.Duration(0)
			for _, s := range ph.samples {
				if s.Issued {
					last = max(last, s.Done)
					if s.OK {
						completed++
					}
				}
			}
			busy += last.Seconds() / rep.pause()
			tf.verify(rep, ph)
		}
		rep.set("max_rate", float64(completed)/busy)
		fmt.Fprintf(os.Stderr, "benchsuite: %s saturated: %d requests in %.3f corrected seconds\n", spec.name, completed, busy)
		return nil
	}
}

// traceServe runs the fixed rate twice, untraced and then with the
// daemon's tracer installed, and attributes the traced requests to layers
// by joining each reply with its request span (by X-Request-ID) and with a
// replay of its class through the layers' public functions. It ends with
// the knee search: the highest Poisson rate whose p99 meets the workload's
// limit with no growing backlog.
func traceServe(spec serveSpec) func(context.Context, runConfig, *report) error {
	return func(ctx context.Context, cfg runConfig, rep *report) error {
		due := load.PoissonArrivals(streamSeed(cfg.seed, "arrivals/fixed"), spec.rate, cfg.budget(0.3))

		plain, _, err := setupServe(ctx, rep, spec, cfg.seed, server.Config{})
		if err != nil {
			return err
		}
		expMS, err := probeUnitCosts(rep, plain.topos, cfg.seed)
		if err != nil {
			plain.d.close()
			return err
		}
		base, _, err := plain.stretches(ctx, rep, "plain", due, tracedParts, false)
		plain.d.close()
		if err != nil {
			return err
		}
		baseLat, _, _ := base.latencies()
		if !load.Supports(len(baseLat), 0.9) {
			return fmt.Errorf("%s: %d completed requests cannot support a p90", spec.name, len(baseLat))
		}
		rep.set("loadgen.p90_ratio", load.Percentile(baseLat, 0.9)/load.Median(baseLat))

		// Room for every request span of the phase and its set-up, twice
		// over: a schedule request adds a capacity span.
		ring := 2*len(due) + 1024
		tracer := obs.NewTracer(ring)
		tf, _, err := setupServe(ctx, rep, spec, cfg.seed, server.Config{Tracer: tracer})
		if err != nil {
			return err
		}
		defer tf.d.close()
		before, err := scrapeMetrics(ctx, tf.d.hc, tf.d.ts.URL)
		if err != nil {
			return err
		}
		spansBefore := tracer.Recorded()
		ph, backlog, err := tf.stretches(ctx, rep, "traced", due, tracedParts, true)
		if err != nil {
			return err
		}
		after, err := scrapeMetrics(ctx, tf.d.hc, tf.d.ts.URL)
		if err != nil {
			return err
		}
		lat, _, _ := ph.latencies()
		rep.set("trace_overhead_pct", 100*(load.Median(lat)-load.Median(baseLat))/load.Median(baseLat))
		if n := tracer.Recorded() - spansBefore; n > uint64(ring) {
			return fmt.Errorf("%s: %d spans overflowed the tracer ring of %d", spec.name, n, ring)
		}
		evictions := "rayschedd_session_evictions_total"
		rep.set("server.session_evictions", after[evictions]-before[evictions])
		rep.set("loadgen.backlog_max", float64(backlog))
		if cfg.traceDir != "" {
			if err := tracer.WriteTraceFile(traceFile(cfg, spec.name)); err != nil {
				return err
			}
		}
		if err := tf.attribute(rep, spec.name, ph, tracer.Snapshot(), expMS, cfg.seed); err != nil {
			return err
		}
		return tf.knee(ctx, rep, spec, cfg)
	}
}

// knee brackets upward from the fixed rate in steps of ×1.5, then bisects
// to 5%, one short Poisson stretch per step: a step passes when its p99
// meets the limit and it completes 97% of its arrivals.
func (tf *traffic) knee(ctx context.Context, rep *report, spec serveSpec, cfg runConfig) error {
	step := max(cfg.budget(0.3)/kneeSteps, time.Second)
	var slows []float64
	n := 0
	knee, _ := load.Knee(spec.rate, 1.5, 0.05, kneeSteps, func(rate float64) bool {
		if ctx.Err() != nil {
			return false
		}
		n++
		// A tenth of a step of grace sends what fell due just before the
		// end; a backlog that grew through the step still goes unsent.
		ph, err := tf.run(ctx, "knee"+strconv.Itoa(n), load.PoissonArrivals(streamSeed(cfg.seed, "arrivals/knee"+strconv.Itoa(n)), rate, step), step+step/10)
		if err != nil {
			return false
		}
		slows = append(slows, rep.pause())
		tf.verify(rep, ph)
		st := load.Judge(rate, ph.samples, spec.limit)
		p99 := "missed"
		if st.P99 < time.Hour {
			p99 = fmt.Sprintf("%.3f ms", ms(st.P99))
		}
		fmt.Fprintf(os.Stderr, "benchsuite: %s knee step %.0f/s for %s: %d/%d completed, p99 %s, pass=%v\n",
			spec.name, rate, step, st.Completed, st.Arrivals, p99, st.Pass)
		return st.Pass
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	// A machine running slow sustains proportionally less.
	rep.set("loadgen.knee_rate", knee*load.Median(slows))
	return nil
}

// requestSpan is what the daemon's request span says about one request.
type requestSpan struct {
	dur, queue float64 // ms
}

// attribute splits every traced request into layers: the generator's
// backlog (due to sent), HTTP (round trip minus the daemon's request span),
// queue wait (span attribute), and the replayed cost of its class — decode,
// topology parse and canonicalization, cache key, and for misses the
// compute and the response marshal. Whatever the request span holds beyond
// those (cache and session lookups, routing) is left to the residual. The
// phase's times are corrected stretch by stretch, the replays' by their
// own pauses.
func (tf *traffic) attribute(rep *report, name string, ph *phase, spans []obs.SpanRecord, expMS float64, seed uint64) error {
	byID := map[string]requestSpan{}
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Name, "http./v1/") {
			continue
		}
		var id string
		var queue int64
		for _, a := range sp.Attrs {
			switch a.Key {
			case "request_id":
				id, _ = a.Value.(string)
			case "queue_wait_us":
				queue, _ = a.Value.(int64)
			}
		}
		byID[id] = requestSpan{dur: ms(sp.Dur), queue: float64(queue) / 1e3}
	}

	// One replay per class of request: kind and cache outcome.
	type class struct {
		kind kind
		miss bool
	}
	members := map[class][]int{}
	hits, shared, withCache := 0, 0, 0
	for i, s := range ph.samples {
		if !s.Issued || !s.OK {
			continue
		}
		r := ph.replies[i]
		if r.cache != "" {
			withCache++
			if r.cache == "hit" {
				hits++
			}
		}
		if r.shared {
			shared++
		}
		c := class{ph.reqs[i].kind, r.cache != "hit"}
		members[c] = append(members[c], i)
	}
	rep.set("server.hit_ratio", float64(hits)/math.Max(float64(withCache), 1))
	rep.set("server.shared_ratio", float64(shared)/math.Max(float64(withCache), 1))

	classes := make([]class, 0, len(members))
	for c := range members {
		classes = append(classes, c)
	}
	order := func(c class) int {
		if c.miss {
			return 2*int(c.kind) + 1
		}
		return 2 * int(c.kind)
	}
	slices.SortFunc(classes, func(a, b class) int { return order(a) - order(b) })
	pickRand := newRand(seed, name+"/replay")
	classCost := map[class]costs{}
	var draws, calls float64
	rep.pause()
	for _, c := range classes {
		idx := members[c]
		var samples []costs
		for _, k := range pick(pickRand, len(idx), 24) {
			i := idx[k]
			rc, err := tf.replay(ph.reqs[i], ph.replies[i], c.miss)
			if err != nil {
				rep.problem("%s replay of %s: %v", name, ph.ids[i], err)
				continue
			}
			samples = append(samples, rc)
		}
		med := medianCosts(samples)
		classCost[c] = med
		draws += med.draws * float64(len(idx))
		calls += med.calls * float64(len(idx))
	}
	replayed := rep.pause()
	for c, cost := range classCost {
		classCost[c] = splitDraws(cost.scaled(1/replayed), expMS)
	}
	completed := 0
	a := attribution{workload: name}
	for i, s := range ph.samples {
		if !s.Issued || !s.OK {
			continue
		}
		completed++
		sp, ok := byID[ph.ids[i]]
		if !ok {
			return fmt.Errorf("%s: no request span for %s", name, ph.ids[i])
		}
		f := ph.factor[i]
		layers := map[string]float64{
			"backlog": ms(s.Sent-s.Due) / f,
			"http":    (ms(s.Done-s.Sent) - sp.dur) / f,
			"queue":   sp.queue / f,
		}
		for layer, v := range classCost[class{ph.reqs[i].kind, ph.replies[i].cache != "hit"}].layer {
			layers[layer] += v
		}
		a.add(layers, ms(s.Latency())/f)
	}
	rep.set("rng.exp_draws", draws/math.Max(float64(completed), 1))
	rep.set("fading.calls", calls/math.Max(float64(completed), 1))
	a.record(rep, os.Stderr)
	return nil
}

// replay times the daemon's work for one request through the public
// functions: decode, topology parse and canonicalization, cache key, and,
// when the request missed the cache, the compute (checked bit for bit
// against the reply) and the response marshal.
func (tf *traffic) replay(req request, r reply, miss bool) (costs, error) {
	c := newCosts()
	net, err := tf.parsed(req.topo)
	if err != nil {
		return c, err
	}
	switch req.kind {
	case estimateInline, estimateRef:
		var doc estimateRequest
		t := time.Now()
		if err := decodeStrict(req.body, &doc); err != nil {
			return c, err
		}
		c.layer["decode"] += since(t)
		if req.kind == estimateInline {
			if err := parseCanon(doc.Network, &c); err != nil {
				return c, err
			}
		}
		t = time.Now()
		if _, err := requestKey("/v1/estimate", estimateParams{Beta: 2.5, Prob: 0.5, Samples: req.samples, Seed: req.seed}, req.topo.canon); err != nil {
			return c, err
		}
		c.layer["key"] += since(t)
		if miss {
			var got estimateResponse
			if err := json.Unmarshal(r.body, &got); err != nil {
				return c, err
			}
			rc, err := replayEstimate(net, got)
			if err != nil {
				return c, err
			}
			c.add(rc)
			t = time.Now()
			if _, err := json.Marshal(&got); err != nil {
				return c, err
			}
			c.layer["marshal"] += since(t)
		}
	case scheduleRef:
		var doc scheduleRequest
		t := time.Now()
		if err := decodeStrict(req.body, &doc); err != nil {
			return c, err
		}
		c.layer["decode"] += since(t)
		t = time.Now()
		if _, err := requestKey("/v1/schedule", scheduleParams{Algorithm: req.alg, Beta: req.beta}, req.topo.canon); err != nil {
			return c, err
		}
		c.layer["key"] += since(t)
		if miss {
			var got scheduleResponse
			if err := json.Unmarshal(r.body, &got); err != nil {
				return c, err
			}
			rc, err := replaySchedule(net, got)
			if err != nil {
				return c, err
			}
			c.add(rc)
			t = time.Now()
			if _, err := json.Marshal(&got); err != nil {
				return c, err
			}
			c.layer["marshal"] += since(t)
		}
	case uploadTopology:
		if err := parseCanon(req.body, &c); err != nil {
			return c, err
		}
		t := time.Now()
		topologyRef(req.body)
		c.layer["key"] += since(t)
		var got topologyResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			return c, err
		}
		t = time.Now()
		if _, err := json.Marshal(&got); err != nil {
			return c, err
		}
		c.layer["marshal"] += since(t)
	}
	return c, nil
}

// traceFile names the Chrome trace file of one workload's traced run.
func traceFile(cfg runConfig, workload string) string {
	return fmt.Sprintf("%s/%s-seed%d.trace.json", strings.TrimRight(cfg.traceDir, "/"), workload, cfg.seed)
}
