// Package server is rayschedd's scheduling-as-a-service core: an HTTP/JSON
// daemon exposing the library's schedulers over netio-format topologies.
//
// Endpoints:
//
//	POST /v1/schedule        single-slot capacity scheduling + fading transfer
//	POST /v1/latency         full-coverage latency scheduling (repeated capacity, ALOHA)
//	POST /v1/reduce          non-fading→Rayleigh reduction (Algorithm 1 / Theorem 2)
//	POST /v1/estimate        Monte-Carlo Rayleigh success estimation (exact form alongside)
//	POST /v1/estimate/batch  NDJSON stream of estimate requests, one response line each
//	POST /v1/topology        register a topology session; returns its sha256 topology_ref
//	POST /v1/shard           distributed Monte-Carlo: replications [lo,hi) as a shard document
//	GET  /healthz            liveness + version + worker identity (instance, GOMAXPROCS, shard load) + JSON stats
//	GET  /metrics            Prometheus text: requests, latency, queue wait, cache, sessions, queue
//	GET  /debug/obs          (Config.Debug) counter snapshot + recent request spans
//	GET  /debug/pprof/       (Config.Debug) net/http/pprof
//
// Production shape, stdlib only:
//
//   - Admission control. Every compute request passes through a bounded
//     worker pool (NewPool); when the queue is full the daemon answers
//     429 with Retry-After instead of queueing unboundedly.
//   - Deadlines. Each request runs under a context deadline (server default,
//     tightened per-request via timeout_ms) that is threaded into the
//     capacity/latency/transform scheduler loops, so abandoned work stops
//     consuming workers. Expiry maps to 504.
//   - One pipeline. The four compute endpoints are rows of one endpoint
//     table (computeEndpoints): each row's request type supplies defaults,
//     validation and the compute call, and one handler runs decode →
//     resolve → bind → serve for all of them and for batch lines.
//   - Caching. Responses are cached in an LRU keyed by a canonical hash of
//     (endpoint, defaults-applied params, canonical topology); repeated
//     identical queries replay byte-identical bodies from memory. In front
//     of it, an alias LRU maps a hash of the raw request body to that
//     canonical key, so a byte-identical repeat of an inline request is
//     answered before any decode, topology parse or re-canonicalization.
//     Each request counts exactly one cache hit or miss. The cache, the
//     aliases, the topology sessions and the per-trace collectors share one
//     generic LRU (lru.go).
//   - Topology sessions. POST /v1/topology pays the topology parse,
//     validation, and canonicalization once; compute requests then send
//     topology_ref instead of the full document. Refs are content hashes,
//     so eviction from the bounded session LRU is always recoverable by
//     re-uploading. A session compiles its topology (gain matrix and
//     counter Plan) on its first by-ref compute and keeps it, within a
//     byte budget, for every later request on it (compiled.go).
//   - Singleflight. Concurrent identical computations collapse onto one
//     pool job; followers receive the leader's exact bytes (exported as
//     rayschedd_singleflight_shared_total).
//   - Observability. Per-endpoint request/status counts (obs.Registry
//     counters, shared with /debug/obs), log-spaced latency and queue-wait
//     histograms (reusing stats.Histogram), cache hit/miss, queue depth and
//     in-flight gauges, rendered at /metrics; a request ID per response
//     (X-Request-ID) threaded through ctx, one structured access-log record
//     per request, and an optional detached span per request. /healthz
//     carries the same tallies as a JSON stats object, which is what cluster
//     coordinators read. /healthz and /metrics record under the shared
//     "meta" label so probe traffic cannot skew the compute histograms.
//
// Graceful shutdown is the caller's two-phase affair: http.Server.Shutdown
// stops intake and drains in-flight HTTP, then Server.Close drains the pool.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"rayfade/internal/faults"
	"rayfade/internal/obs"
	"rayfade/internal/version"
)

// Config sizes the daemon. The zero value selects production-reasonable
// defaults (see the field comments).
type Config struct {
	// Workers is the compute concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// QueueSize bounds jobs waiting for a worker; <= 0 selects 64. A full
	// queue answers 429.
	QueueSize int
	// CacheSize bounds the response LRU and the raw-body alias LRU in front
	// of it (entries each); 0 selects 256, negative disables both.
	CacheSize int
	// MaxLinks rejects larger topologies with 413; <= 0 selects 5000.
	MaxLinks int
	// MaxBodyBytes bounds the request body; <= 0 selects 16 MiB.
	MaxBodyBytes int64
	// DefaultTimeout is the per-request compute deadline when the request
	// does not set timeout_ms; <= 0 selects 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts; <= 0 selects 5m.
	MaxTimeout time.Duration
	// MaxSamples caps Monte-Carlo sample counts on /v1/reduce and
	// /v1/estimate; <= 0 selects 1_000_000.
	MaxSamples int
	// MaxSessions bounds the topology session LRU (entries); 0 selects 128,
	// negative disables the session API (uploads answer 503, refs miss).
	// Each session keeps its topology's digest, not its canonical bytes,
	// and, once computed on by ref, its compiled topology (gain matrix and
	// counter Plan, 12·n² bytes for n links) if that fits in a fixed 64 MiB
	// divided by MaxSessions; see compiled.go.
	MaxSessions int
	// MaxBatchLines caps the number of NDJSON lines one /v1/estimate/batch
	// request may carry; <= 0 selects 10_000.
	MaxBatchLines int
	// MaxTraces bounds how many distinct trace IDs the daemon retains span
	// collections for (requests arriving with X-Trace-Context; served back
	// over GET /v1/trace/{id}). LRU eviction; 0 selects 64, negative
	// disables collection and the fetch endpoint answers 503.
	MaxTraces int
	// Log receives one structured access-log record per request (request id,
	// endpoint, status, duration, queue wait). Nil discards — the zero-value
	// Config stays silent, matching pre-observability behavior.
	Log *slog.Logger
	// Debug mounts the runtime-introspection surface: GET /debug/obs (counter
	// snapshot + recent spans) and the net/http/pprof handlers under
	// /debug/pprof/. Off by default: these leak operational detail and must
	// be opted into.
	Debug bool
	// Tracer, when non-nil, records one detached span per request. When nil
	// and Debug is set, the server creates a private ring tracer so
	// /debug/obs has spans to show; when nil without Debug, request spans
	// cost nothing.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxLinks <= 0 {
		c.MaxLinks = 5000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 1_000_000
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 128
	}
	if c.MaxBatchLines <= 0 {
		c.MaxBatchLines = 10_000
	}
	if c.MaxTraces == 0 {
		c.MaxTraces = 64
	}
	return c
}

// Server wires the pool, cache, metrics, and handlers into one http.Handler.
type Server struct {
	cfg      Config
	pool     *Pool
	cache    *lru[string, []byte]            // response bodies by requestKey
	aliases  *lru[[sha256.Size]byte, string] // requestKey by inline body digest (see probe)
	sessions *SessionStore
	flights  *flightGroup
	metrics  *Metrics
	mux      *http.ServeMux
	log      *slog.Logger
	tracer   *obs.Tracer
	// traces holds the per-trace span collectors (newTraceTracer) by trace
	// ID; nil when Config.MaxTraces < 0 disables collection.
	traces *lru[string, *obs.Tracer]
	// memoCap is the per-session byte cap of a compiled topology,
	// compiledBudget / MaxSessions; memo tallies its use (see compile).
	memoCap int64
	memo    memoStats

	// sfShared tallies singleflight followers: responses delivered from a
	// computation another request led. batchLines / batchLineErrors tally
	// the NDJSON lines /v1/estimate/batch processed and how many of them
	// answered an error document.
	sfShared        *obs.Counter
	batchLines      *obs.Counter
	batchLineErrors *obs.Counter

	// instance identifies this daemon process to cluster coordinators
	// (reported by /healthz); fresh per New, stable for the process.
	instance string
	// shardsInflight counts /v1/shard computations currently on pool
	// workers; shardsCompleted tallies successfully sealed shard documents.
	shardsInflight  atomic.Int64
	shardsCompleted *obs.Counter

	// draining gates new work intake: while set, POST endpoints answer 503 +
	// Retry-After and /healthz reports "draining" so coordinators stop
	// dispatching here instead of burning lease attempts. GETs (healthz,
	// metrics, trace fetch) stay live — operators and coordinators still need
	// to watch the drain.
	draining atomic.Bool
}

// New builds a ready-to-serve Server. The caller owns its lifecycle: serve
// s with net/http, then Close to drain the pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	log := cfg.Log
	if log == nil {
		log = obs.Discard()
	}
	tracer := cfg.Tracer
	if tracer == nil && cfg.Debug {
		tracer = obs.NewTracer(0)
	}
	s := &Server{
		cfg:      cfg,
		pool:     NewPool(cfg.Workers, cfg.QueueSize),
		cache:    newLRU[string, []byte](cfg.CacheSize),
		aliases:  newLRU[[sha256.Size]byte, string](cfg.CacheSize),
		sessions: NewSessionStore(cfg.MaxSessions),
		flights:  newFlightGroup(),
		metrics:  NewMetrics(),
		mux:      http.NewServeMux(),
		log:      log,
		tracer:   tracer,
		instance: obs.NewRunID(),
	}
	if cfg.MaxTraces > 0 {
		s.traces = newLRU[string, *obs.Tracer](cfg.MaxTraces)
	}
	if cfg.MaxSessions > 0 {
		s.memoCap = compiledBudget / int64(cfg.MaxSessions)
	}
	s.metrics.SetBuildInfo(version.Version, s.instance, runtime.GOMAXPROCS(0))
	s.shardsCompleted = s.metrics.Counter("rayschedd_shards_completed_total")
	s.sfShared = s.metrics.Counter("rayschedd_singleflight_shared_total")
	s.batchLines = s.metrics.Counter("rayschedd_batch_lines_total")
	s.batchLineErrors = s.metrics.Counter("rayschedd_batch_line_errors_total")
	s.metrics.Gauge("rayschedd_sessions_entries", func() float64 { return float64(s.sessions.len()) })
	s.metrics.Gauge("rayschedd_session_hits_total", func() float64 { h, _, _ := s.sessions.stats(); return float64(h) })
	s.metrics.Gauge("rayschedd_session_misses_total", func() float64 { _, m, _ := s.sessions.stats(); return float64(m) })
	s.metrics.Gauge("rayschedd_session_evictions_total", func() float64 { _, _, e := s.sessions.stats(); return float64(e) })
	s.metrics.Gauge("rayschedd_compiled_hits_total", func() float64 { return float64(s.memo.hits.Load()) })
	s.metrics.Gauge("rayschedd_compiled_misses_total", func() float64 { return float64(s.memo.misses.Load()) })
	s.metrics.Gauge("rayschedd_compiled_builds_total", func() float64 { return float64(s.memo.builds.Load()) })
	s.metrics.Gauge("rayschedd_compiled_skips_total", func() float64 { return float64(s.memo.skips.Load()) })
	s.metrics.Gauge("rayschedd_compiled_bytes", func() float64 { return float64(s.memoBytes()) })
	s.metrics.Gauge("rayschedd_shards_inflight", func() float64 { return float64(s.shardsInflight.Load()) })
	s.metrics.Gauge("rayschedd_traces_retained", func() float64 { return float64(s.tracesRetained()) })
	s.metrics.Gauge("rayschedd_queue_depth", func() float64 { return float64(s.pool.QueueDepth()) })
	s.metrics.Gauge("rayschedd_in_flight", func() float64 { return float64(s.pool.InFlight()) })
	s.metrics.Gauge("rayschedd_cache_entries", func() float64 { return float64(s.cache.len()) })
	s.metrics.Gauge("rayschedd_cache_hits_total", func() float64 { h, _, _ := s.cache.stats(); return float64(h) })
	s.metrics.Gauge("rayschedd_cache_misses_total", func() float64 { _, m, _ := s.cache.stats(); return float64(m) })
	s.metrics.Gauge("rayschedd_cache_hit_ratio", func() float64 {
		h, m, _ := s.cache.stats()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})

	for _, ep := range computeEndpoints {
		s.mux.HandleFunc("POST "+ep.path, s.instrumented(ep.path, s.handleCompute(ep)))
	}
	s.mux.HandleFunc("POST /v1/estimate/batch", s.instrumented("/v1/estimate/batch", s.handleEstimateBatch))
	s.mux.HandleFunc("POST /v1/topology", s.instrumented("/v1/topology", s.handleTopology))
	s.mux.HandleFunc("POST /v1/shard", s.instrumented("/v1/shard", s.handleShard))
	s.mux.HandleFunc("GET /v1/trace/{id}", s.instrumented("meta", s.handleTraceFetch))
	// The operational endpoints share one "meta" label: they must not be
	// invisible to the access log and request counters (a scraper hammering
	// /metrics is load too), but folding them into per-path labels would let
	// probe traffic drown the compute endpoints' latency histograms.
	s.mux.HandleFunc("GET /healthz", s.instrumented("meta", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrumented("meta", s.handleMetrics))
	if cfg.Debug {
		s.mux.HandleFunc("GET /debug/obs", s.instrumented("meta", s.handleDebugObs))
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the worker pool: queued and in-flight jobs finish, new Do
// calls fail. Call it after http.Server.Shutdown has returned.
func (s *Server) Close() { s.pool.Close() }

// SetDraining toggles drain mode (see the draining field). Safe to call
// concurrently with requests; flipping back to false re-opens intake.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Busy reports whether compute work is still queued or in flight — the
// condition a draining daemon waits to clear before exiting.
func (s *Server) Busy() bool {
	return s.pool.InFlight() > 0 || s.pool.QueueDepth() > 0
}

// statusWriter captures the status code for metrics, plus the pool
// admission facts serve() stashes for the access log and queue-wait
// histogram (pooled is false for cache hits and door rejections).
type statusWriter struct {
	http.ResponseWriter
	status    int
	wrote     bool // any part of the response sent — a late 500 is impossible
	queueWait time.Duration
	pooled    bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrumented wraps a handler with the per-request observability chain:
// it adopts the client's X-Request-ID when one arrives well-formed (so a
// retried request correlates to one ID in the access log) or mints one,
// echoes it, threads it through the request context for the compute layers'
// log records, opens a detached span when a tracer is installed, and on
// completion records the request counters, the latency and queue-wait
// histograms, and one access-log line.
//
// A request arriving with a valid X-Trace-Context header is additionally
// collected: its spans (the request span and every compute span started
// under it) record into the per-trace collector keyed by the header's trace
// ID instead of the server's own tracer, and the request span remembers the
// header's parent span as its remote parent. GET /v1/trace/{id} serializes
// the collection for the coordinator's merger.
func (s *Server) instrumented(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if !validRequestID(reqID) {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ctx := obs.WithRunID(r.Context(), reqID)
		tracer := s.tracer
		var traceID string
		var remoteParent uint64
		if hv := r.Header.Get(obs.HeaderTraceContext); hv != "" && s.traces != nil {
			if tc, err := obs.ParseTraceContext(hv); err == nil {
				tracer, _ = s.traces.add(tc.TraceID, newTraceTracer)
				traceID = tc.TraceID
				remoteParent = tc.ParentID
			}
		}
		var sp *obs.Span
		if tracer != nil {
			ctx = obs.WithTracer(ctx, tracer)
			// Detached: concurrent requests are siblings and must not share
			// a Chrome track; the scheduler spans they start nest under this
			// one via the span carried in ctx.
			ctx, sp = obs.StartDetached(ctx, "http."+endpoint)
			sp.SetAttr("request_id", reqID)
			sp.SetAttr("method", r.Method)
			if traceID != "" {
				sp.SetAttr("trace_id", traceID)
				sp.SetRemoteParent(remoteParent)
			}
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		// The accounting below runs in a defer so a panicking handler (a bug,
		// or an injected fault) is still counted, logged, and — when nothing
		// has been sent yet — answered with a JSON 500 instead of net/http
		// tearing down the connection. The daemon must stay up under faults.
		defer func() {
			if rec := recover(); rec != nil {
				if !sw.wrote {
					writeError(sw, fmt.Errorf("server: handler panic: %v", rec))
				} else {
					sw.status = http.StatusInternalServerError
				}
				s.log.Error("handler panic",
					"request_id", reqID, "endpoint", endpoint, "panic", fmt.Sprint(rec))
			}
			elapsed := time.Since(start)
			if sp != nil {
				sp.SetAttr("status", sw.status)
				if sw.pooled {
					// Queue-wait annotation: how long this request sat waiting
					// for a pool worker, visible on the span in merged traces.
					sp.SetAttr("queue_wait_us", sw.queueWait.Microseconds())
				}
				sp.End()
			}
			s.metrics.Observe(endpoint, sw.status, elapsed.Seconds())
			if sw.pooled {
				s.metrics.ObserveQueueWait(endpoint, sw.queueWait.Seconds())
			}
			s.log.Info("request",
				"request_id", reqID,
				"endpoint", endpoint,
				"method", r.Method,
				"status", sw.status,
				"duration", elapsed.Round(time.Microsecond).String(),
				"queue_wait", sw.queueWait.Round(time.Microsecond).String(),
			)
		}()
		// Drain gate: a draining daemon refuses new compute work with the
		// same retryable-outage contract as an injected 503, so a
		// coordinator's client backs off and tries another worker instead of
		// counting a lease failure. The refusal still flows through the
		// accounting defer above — drained requests are logged and counted.
		if r.Method == http.MethodPost && s.draining.Load() {
			sw.Header().Set("Retry-After", "1")
			writeError(sw, &httpError{status: http.StatusServiceUnavailable, msg: "server: draining"})
			return
		}
		h(sw, r.WithContext(ctx))
	}
}

// writeJSON writes body (already-marshaled JSON) with status.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeError maps err onto an HTTP status and a JSON error body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the access log only.
		status = http.StatusGatewayTimeout
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
		// serve() sets a load-derived Retry-After before calling here; this
		// is only the fallback for paths that didn't.
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	case errors.Is(err, ErrPoolClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, faults.ErrInjected):
		// Injected transient errors present as a retryable outage: the
		// contract the retrying client is tested against.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	body, merr := json.Marshal(errorBody{Error: err.Error()})
	if merr != nil {
		body = []byte(`{"error":"internal"}`)
	}
	writeJSON(w, status, body)
}

// retryAfter estimates how long a shed client should back off, in whole
// seconds: the queue backlog divided by the worker count (a crude jobs-per-
// worker proxy for drain time, since job durations vary by orders of
// magnitude), clamped to [1,30] so the hint is never zero and never tells a
// client to go away for minutes.
func (s *Server) retryAfter() string {
	depth := s.pool.QueueDepth()
	workers := s.pool.Workers()
	if workers < 1 {
		workers = 1
	}
	secs := (depth + workers - 1) / workers
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// deadline derives a compute context from ctx: the server default timeout,
// replaced (never widened beyond MaxTimeout) by timeout_ms.
func (s *Server) deadline(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(ctx, d)
}

// Response sources: how respond produced a body. Hits replay the LRU,
// misses ran a fresh pool-admitted compute, shared joined another request's
// in-flight computation.
const (
	sourceHit    = "hit"
	sourceMiss   = "miss"
	sourceShared = "shared"
)

// computeOutcome describes how one response body was produced: the bytes,
// the pool admission facts (for the queue-wait histogram), and the source.
type computeOutcome struct {
	body   []byte
	wait   time.Duration
	pooled bool
	source string
}

// respond resolves one call into response bytes under its canonical key
// (requestKey of endpoint, params and topology digest): LRU lookup, then
// singleflight join (followers share the leader's bytes), then a fresh
// pool-admitted, deadline-bounded compute whose marshaled result fills the
// cache. It is the shared core of the single-request pipeline (serve) and
// the NDJSON batch loop, so both paths produce byte-identical bodies for
// identical keys by construction.
//
// A call whose probe already counted the LRU lookup skips it, and an
// inline call aliases its raw body to the key on success.
//
// The leader's computation runs detached from its own request's
// cancellation (bounded by the same deadline): followers still want the
// result if the leader's client disconnects, and the bytes land in the
// cache either way.
func (s *Server) respond(ctx context.Context, endpoint string, c call) (out computeOutcome, err error) {
	key := requestKey(endpoint, c.params, c.topo)
	if c.probe.inline {
		defer func() {
			if err == nil {
				s.aliases.add(c.probe.digest, func() string { return key })
			}
		}()
	}
	if !c.probe.counted {
		if body, ok := s.cache.get(key); ok {
			return computeOutcome{body: body, source: sourceHit}, nil
		}
	}
	fl, leader := s.flights.join(key)
	if !leader {
		select {
		case <-fl.done:
		case <-ctx.Done():
			return computeOutcome{source: sourceShared}, ctx.Err()
		}
		if fl.err != nil {
			return computeOutcome{source: sourceShared}, fl.err
		}
		s.sfShared.Add(1)
		return computeOutcome{body: fl.body, source: sourceShared}, nil
	}
	cctx := context.WithoutCancel(ctx)
	if dl, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		cctx, cancel = context.WithDeadline(cctx, dl)
		defer cancel()
	}
	var (
		body       []byte
		computeErr error
	)
	wait, err := s.pool.DoTimed(cctx, func(ctx context.Context) {
		resp, cerr := c.compute(ctx)
		if cerr != nil {
			computeErr = cerr
			return
		}
		b, merr := json.Marshal(resp)
		if merr != nil {
			computeErr = merr
			return
		}
		body = b
	})
	out = computeOutcome{
		wait:   wait,
		source: sourceMiss,
		pooled: !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrPoolClosed),
	}
	if err == nil {
		err = computeErr
	}
	if err != nil {
		s.flights.finish(key, fl, nil, err)
		return out, err
	}
	// Fill the cache before releasing the flight so a request landing in
	// between finds the bytes in the LRU instead of recomputing.
	s.cache.add(key, func() []byte { return body })
	s.flights.finish(key, fl, body, nil)
	out.body = body
	return out, nil
}

// serve is the shared request pipeline behind the compute endpoints:
// cache lookup on the canonical key, singleflight join, pool admission
// (429 on overflow), deadline-bounded compute, response marshaling, cache
// fill. c.compute runs on a pool worker.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, endpoint string, c call) {
	// Chaos hook: a transient error here answers 503 + Retry-After (the
	// retryable-outage contract); an injected panic is recovered by the
	// instrumented wrapper into a JSON 500. Free when no injector is set.
	if err := faults.Inject(faults.SiteHandler); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.deadline(r.Context(), c.timeoutMS)
	defer cancel()
	out, err := s.respond(ctx, endpoint, c)
	if sw, ok := w.(*statusWriter); ok {
		sw.queueWait = out.wait
		sw.pooled = out.pooled
	}
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.metrics.ObserveShed(endpoint)
			w.Header().Set("Retry-After", s.retryAfter())
		}
		writeError(w, err)
		return
	}
	if out.source == sourceShared {
		// Shared responses are misses from the cache's point of view; the
		// extra header is what lets clients (and tests) see the collapse.
		w.Header().Set("X-Singleflight", "shared")
		w.Header().Set("X-Cache", sourceMiss)
	} else {
		w.Header().Set("X-Cache", out.source)
	}
	writeJSON(w, http.StatusOK, out.body)
}

// ---- endpoint handlers ----------------------------------------------------

// handleTopology registers a topology session: the request body is a netio
// topology document (the same JSON that goes in a compute request's
// "network" field), and the response carries its content-derived session
// handle. Re-uploading an already-registered topology is cheap and
// idempotent ("created": false) — clients recover from evictions by
// re-posting.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeError(w, err)
		return
	}
	net, canon, err := parseTopology(raw, s.cfg.MaxLinks)
	if err != nil {
		writeError(w, err)
		return
	}
	ref, created, err := s.sessions.Put(canon, net)
	if err != nil {
		writeError(w, &httpError{status: http.StatusServiceUnavailable, msg: err.Error()})
		return
	}
	body, err := json.Marshal(topologyResponse{
		TopologyRef: ref,
		Links:       net.N(),
		Created:     created,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	ch, cm, _ := s.cache.stats()
	sh, sm, _ := s.sessions.stats()
	body, _ := json.Marshal(Health{
		Status:          status,
		Version:         version.Version,
		Instance:        s.instance,
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		ShardsInflight:  s.shardsInflight.Load(),
		ShardsCompleted: s.shardsCompleted.Load(),
		Stats: Stats{
			Endpoints:          s.metrics.summaries(),
			CacheHits:          ch,
			CacheMisses:        cm,
			SingleflightShared: uint64(s.sfShared.Load()),
			SessionHits:        sh,
			SessionMisses:      sm,
			CompiledHits:       s.memo.hits.Load(),
			CompiledMisses:     s.memo.misses.Load(),
			CompiledSkips:      s.memo.skips.Load(),
			CompiledBuilds:     s.memo.builds.Load(),
			CompiledBytes:      s.memoBytes(),
			BatchLines:         uint64(s.batchLines.Load()),
			TracesRetained:     uint64(s.tracesRetained()),
		},
	})
	writeJSON(w, http.StatusOK, body)
}

// tracesRetained is the number of trace IDs with a span collection.
func (s *Server) tracesRetained() int {
	if s.traces == nil {
		return 0
	}
	return s.traces.len()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w)
}

// debugObsResponse is the GET /debug/obs body: the counter registry behind
// /metrics plus the tracer's retained spans — the JSON face of the same
// state the Prometheus page renders as text.
type debugObsResponse struct {
	Counters      map[string]int64 `json:"counters"`
	SpansRecorded uint64           `json:"spans_recorded"`
	RecentSpans   []obs.SpanRecord `json:"recent_spans"`
}

func (s *Server) handleDebugObs(w http.ResponseWriter, r *http.Request) {
	resp := debugObsResponse{
		Counters:      s.metrics.Registry().Snapshot(),
		SpansRecorded: s.tracer.Recorded(),
		RecentSpans:   s.tracer.Snapshot(),
	}
	body, err := json.MarshalIndent(resp, "", " ")
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// ---- shared validation -----------------------------------------------------

func validateBeta(beta float64) error {
	if !(beta > 0) {
		return badRequest("beta %g must be positive", beta)
	}
	return nil
}

func validateProb(p float64) error {
	if !(p > 0) || p > 1 {
		return badRequest("prob %g outside (0,1]", p)
	}
	return nil
}

func validateSamples(n, max int) error {
	if n < 1 || n > max {
		return badRequest("samples %d outside [1,%d]", n, max)
	}
	return nil
}
