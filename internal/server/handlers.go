package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"rayfade/internal/faults"
	"rayfade/internal/httpbody"
	"rayfade/internal/netio"
	"rayfade/internal/network"
)

// httpError carries the status code a request-shaped failure should map to,
// so the generic handler pipeline needs no per-endpoint error tables.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func unprocessable(format string, args ...any) error {
	return &httpError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, args...)}
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// decodeJSON decodes the request body into dst through decodeStrict, with
// oversized bodies surfacing as 413 via MaxBytesReader.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	return decodeStrict(r.Body, dst, "request")
}

// decodeStrict decodes exactly one JSON document from rd into dst, rejecting
// unknown fields (the same typo protection netio applies to topology files)
// and trailing garbage. what names the document in error messages.
func decodeStrict(rd io.Reader, dst any, what string) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if tooLarge := bodyTooLarge(err); tooLarge != nil {
			return tooLarge
		}
		return badRequest("decode %s: %v", what, err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON document")
	}
	return nil
}

// readBody reads the whole request body under maxBytes; an oversized body
// surfaces as 413. A declared length sizes the read buffer once (see
// httpbody.ReadAll), never beyond maxBytes.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	raw, err := httpbody.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes), min(r.ContentLength, maxBytes))
	if err != nil {
		if tooLarge := bodyTooLarge(err); tooLarge != nil {
			return nil, tooLarge
		}
		return nil, badRequest("read body: %v", err)
	}
	return raw, nil
}

// bodyTooLarge maps a MaxBytesReader overflow to 413, and anything else to
// nil.
func bodyTooLarge(err error) error {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		return nil
	}
	return &httpError{status: http.StatusRequestEntityTooLarge,
		msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
}

// parseTopology decodes a netio-format topology embedded in a request and
// returns the validated network plus its canonical serialization (netio.Save
// output), which is what cache keys hash: two topologies that differ only in
// whitespace or field order key identically.
func parseTopology(raw json.RawMessage, maxLinks int) (*network.Network, []byte, error) {
	if len(raw) == 0 {
		return nil, nil, badRequest("missing \"network\" field (netio topology document)")
	}
	net, err := netio.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, badRequest("topology: %v", err)
	}
	if maxLinks > 0 && net.N() > maxLinks {
		return nil, nil, &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("topology has %d links, limit is %d", net.N(), maxLinks)}
	}
	var canon bytes.Buffer
	if err := netio.Save(&canon, net); err != nil {
		return nil, nil, badRequest("topology: %v", err)
	}
	return net, canon.Bytes(), nil
}

// resolveTopology produces the topology of one compute request, from either
// an inline netio document or a session ref registered via POST
// /v1/topology; byRef reports the second. Both carry the digest of the same
// canonical netio.Save bytes, so cache keys — and therefore response bytes
// — do not depend on which form the client chose.
func (s *Server) resolveTopology(raw json.RawMessage, ref string) (t *topology, byRef bool, err error) {
	if ref == "" {
		net, canon, err := parseTopology(raw, s.cfg.MaxLinks)
		if err != nil {
			return nil, false, err
		}
		return newTopology(net, canon), false, nil
	}
	if len(raw) != 0 {
		return nil, false, badRequest("provide either \"network\" or \"topology_ref\", not both")
	}
	t, ok := s.sessions.get(ref)
	if !ok {
		return nil, false, &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("unknown topology_ref %q (never uploaded, or evicted from the session store — POST /v1/topology to (re)register)", ref)}
	}
	return t, true, nil
}

// requestKey builds the cache key for one request: a hash over the endpoint
// name, the defaults-applied parameter struct (marshaled, so field order is
// fixed), and the topology's canonical digest (nothing for a shard, which
// has no topology). Per-request operational knobs that do not affect the
// computed result (the deadline) must not appear in params.
func requestKey(endpoint string, params any, t *topology) string {
	pb, err := json.Marshal(params)
	if err != nil {
		// Params are plain structs of scalars; this cannot fail at runtime.
		panic(fmt.Sprintf("server: marshal cache-key params: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, endpoint)
	h.Write([]byte{0})
	h.Write(pb)
	h.Write([]byte{0})
	if t != nil {
		h.Write(t.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// probe is one raw request body's pass through the alias index.
type probe struct {
	// digest is sha256(endpoint ‖ 0 ‖ raw body), the alias index key.
	digest [sha256.Size]byte
	// counted reports that the alias hit and the canonical cache was looked
	// up for its key and missed; that lookup already counted the request's
	// one cache miss.
	counted bool
	// inline is set once the body decodes as an inline-topology request:
	// respond then aliases digest to the key after a 200. Session refs and
	// shards are never aliased.
	inline bool
}

// probe hashes a raw request body under endpoint and looks it up in the
// alias index. When the alias names a canonical key whose body is still
// cached, that body is the response (ok): no decode, topology parse or
// re-canonicalization runs. Only inline bodies that once answered 200 are
// aliased (respond records them): such a body's response is a pure function
// of its bytes, whereas a topology_ref body's status depends on whether its
// session is still resident.
func (s *Server) probe(endpoint string, raw []byte) (p probe, body []byte, ok bool) {
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(raw)
	h.Sum(p.digest[:0])
	key, ok := s.aliases.get(p.digest)
	if !ok {
		return p, nil, false
	}
	p.counted = true
	body, ok = s.cache.get(key)
	return p, body, ok
}

// ---- the compute-endpoint table --------------------------------------------

// computeEndpoints is the endpoint table: one row per compute route, each
// naming its request type. The request type is the rest of the descriptor —
// its bind method applies the route's defaults and validation and selects
// the computation — and handleCompute runs every row through the same
// decode → resolve → bind → serve pipeline.
var computeEndpoints = []endpoint{
	{"/v1/schedule", func() computeReq { return new(scheduleRequest) }},
	{"/v1/latency", func() computeReq { return new(latencyRequest) }},
	{"/v1/reduce", func() computeReq { return new(reduceRequest) }},
	estimateEndpoint,
}

// estimateEndpoint is also the row every /v1/estimate/batch line runs.
var estimateEndpoint = endpoint{"/v1/estimate", func() computeReq { return new(estimateRequest) }}

// endpoint is one row of computeEndpoints.
type endpoint struct {
	path   string
	newReq func() computeReq
}

// computeReq is a decoded compute request. bind applies the endpoint's
// defaults and validation, returning the defaults-applied params (the
// cache-key payload) and the computation they select.
type computeReq interface {
	shared() *computeRequest
	bind(maxSamples int) (params any, compute computeFunc, err error)
}

// computeFunc is a bound computation on a compiled topology.
type computeFunc func(context.Context, *compiled) (any, error)

// computeRequest is the part every compute request shares: where the
// topology comes from (an inline netio document or a session ref) and the
// per-request deadline. Each request type embeds it.
type computeRequest struct {
	Network     json.RawMessage `json:"network,omitempty"`
	TopologyRef string          `json:"topology_ref,omitempty"`
	TimeoutMS   int64           `json:"timeout_ms,omitempty"`
}

func (r *computeRequest) shared() *computeRequest { return r }

// call is a compute request resolved and ready to serve: the params and
// topology that key the cache, the request's deadline knob, and the bound
// computation.
type call struct {
	params    any
	topo      *topology // nil for shards
	timeoutMS int64
	compute   func(ctx context.Context) (any, error)
	// probe is the request body's pass through the alias index (zero for
	// shards).
	probe probe
}

// resolve turns a decoded compute request into a call: the topology (inline
// or session ref) first, then the endpoint's defaults and validation. The
// single-request handler and the batch loop both go through it, so a batch
// line and a lone request with the same fields always produce the same
// cache key and response bytes.
//
// The computation compiles the topology (see Server.compile) on the pool
// worker that runs it, so a cache hit or a shared flight never pays for it.
func (s *Server) resolve(req computeReq) (call, error) {
	sh := req.shared()
	t, byRef, err := s.resolveTopology(sh.Network, sh.TopologyRef)
	if err != nil {
		return call{}, err
	}
	params, compute, err := req.bind(s.cfg.MaxSamples)
	if err != nil {
		return call{}, err
	}
	return call{params: params, topo: t, timeoutMS: sh.TimeoutMS, compute: func(ctx context.Context) (any, error) {
		return compute(ctx, s.compile(t, byRef))
	}}, nil
}

// decodeCall decodes raw as one ep request (what names it in errors) and
// resolves it into a call carrying the body's probe p.
func (s *Server) decodeCall(ep endpoint, raw []byte, what string, p probe) (call, error) {
	req := ep.newReq()
	if err := decodeStrict(bytes.NewReader(raw), req, what); err != nil {
		return call{}, err
	}
	c, err := s.resolve(req)
	if err != nil {
		return call{}, err
	}
	p.inline = req.shared().TopologyRef == ""
	c.probe = p
	return c, nil
}

// handleCompute is the one handler behind every row of computeEndpoints: an
// alias hit answers from the cache at once, anything else runs decode →
// resolve → bind → serve.
func (s *Server) handleCompute(ep endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBody(w, r, s.cfg.MaxBodyBytes)
		if err != nil {
			writeError(w, err)
			return
		}
		p, body, ok := s.probe(ep.path, raw)
		if ok {
			// The chaos hook serve runs, so a hit fails exactly as a
			// canonical hit would.
			if err := faults.Inject(faults.SiteHandler); err != nil {
				writeError(w, err)
				return
			}
			w.Header().Set("X-Cache", sourceHit)
			writeJSON(w, http.StatusOK, body)
			return
		}
		c, err := s.decodeCall(ep, raw, "request", p)
		if err != nil {
			writeError(w, err)
			return
		}
		s.serve(w, r, ep.path, c)
	}
}

// ---- request / response schemas -----------------------------------------

// scheduleParams are the defaults-applied knobs of /v1/schedule (also the
// cache-key payload).
type scheduleParams struct {
	Algorithm string  `json:"algorithm"`
	Beta      float64 `json:"beta"`
}

type scheduleRequest struct {
	computeRequest
	Algorithm string  `json:"algorithm,omitempty"`
	Beta      float64 `json:"beta,omitempty"`
}

func (r *scheduleRequest) bind(int) (any, computeFunc, error) {
	p := scheduleParams{Algorithm: r.Algorithm, Beta: r.Beta}
	if p.Algorithm == "" {
		p.Algorithm = "greedy"
	}
	if p.Beta == 0 {
		p.Beta = 2.5
	}
	if err := validateBeta(p.Beta); err != nil {
		return nil, nil, err
	}
	switch p.Algorithm {
	case "greedy", "weighted", "powercontrol":
	default:
		return nil, nil, badRequest("unknown algorithm %q (want greedy, weighted, or powercontrol)", p.Algorithm)
	}
	return p, func(ctx context.Context, t *compiled) (any, error) { return computeSchedule(ctx, p, t) }, nil
}

// scheduleResponse reports a single-slot capacity solution and its fading
// transfer guarantees (Lemma 2 / Theorem 1).
type scheduleResponse struct {
	Algorithm string  `json:"algorithm"`
	Links     int     `json:"links"`
	Beta      float64 `json:"beta"`
	Set       []int   `json:"set"`
	Size      int     `json:"size"`
	// Value is the non-fading value of the set: its size for unweighted
	// algorithms, the selected weight sum for "weighted".
	Value float64 `json:"value"`
	// Powers certify power-control feasibility (aligned with Set); only
	// set by algorithm "powercontrol".
	Powers []float64 `json:"powers,omitempty"`
	// Lemma2Floor is Value/e, the transfer guarantee.
	Lemma2Floor float64 `json:"lemma2_floor"`
	// ExpectedRayleigh is the exact Theorem-1 expectation when exactly Set
	// transmits under Rayleigh fading.
	ExpectedRayleigh float64 `json:"expected_rayleigh_successes"`
}

type latencyParams struct {
	Scheduler string  `json:"scheduler"`
	Model     string  `json:"model"`
	Beta      float64 `json:"beta"`
	Prob      float64 `json:"prob"`
	MaxSlots  int     `json:"max_slots"`
	Seed      uint64  `json:"seed"`
}

type latencyRequest struct {
	computeRequest
	Scheduler string  `json:"scheduler,omitempty"`
	Model     string  `json:"model,omitempty"`
	Beta      float64 `json:"beta,omitempty"`
	Prob      float64 `json:"prob,omitempty"`
	MaxSlots  int     `json:"max_slots,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
}

func (r *latencyRequest) bind(int) (any, computeFunc, error) {
	p := latencyParams{
		Scheduler: r.Scheduler, Model: r.Model, Beta: r.Beta,
		Prob: r.Prob, MaxSlots: r.MaxSlots, Seed: r.Seed,
	}
	if p.Scheduler == "" {
		p.Scheduler = "repeated"
	}
	if p.Model == "" {
		p.Model = "nonfading"
	}
	if p.Beta == 0 {
		p.Beta = 2.5
	}
	if p.Prob == 0 {
		p.Prob = 0.1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if err := validateBeta(p.Beta); err != nil {
		return nil, nil, err
	}
	switch p.Scheduler {
	case "repeated", "aloha":
	default:
		return nil, nil, badRequest("unknown scheduler %q (want repeated or aloha)", p.Scheduler)
	}
	switch p.Model {
	case "nonfading", "rayleigh":
	default:
		return nil, nil, badRequest("unknown model %q (want nonfading or rayleigh)", p.Model)
	}
	if err := validateProb(p.Prob); err != nil {
		return nil, nil, err
	}
	if p.MaxSlots < 0 {
		return nil, nil, badRequest("max_slots must be non-negative")
	}
	return p, func(ctx context.Context, t *compiled) (any, error) { return computeLatency(ctx, p, t) }, nil
}

// latencyResponse reports a full-coverage schedule (every link served).
type latencyResponse struct {
	Scheduler string  `json:"scheduler"`
	Model     string  `json:"model"`
	Links     int     `json:"links"`
	Beta      float64 `json:"beta"`
	Seed      uint64  `json:"seed"`
	// Slots is the number of time slots consumed until every link
	// succeeded (for model "rayleigh", counting the 4x repetition).
	Slots int  `json:"slots"`
	Done  bool `json:"done"`
	// Schedule is the non-fading repeated-capacity schedule (scheduler
	// "repeated" only): one feasible link set per base slot.
	Schedule [][]int `json:"schedule,omitempty"`
	// Repeats is the per-slot repetition factor applied under Rayleigh
	// fading (the Section-4 transformation), 1 otherwise.
	Repeats int `json:"repeats"`
}

// mcParams are the defaults-applied knobs of the two Monte-Carlo endpoints,
// /v1/reduce and /v1/estimate (also their cache-key payload; the endpoint
// name in the key keeps the two apart).
type mcParams struct {
	Beta    float64 `json:"beta"`
	Prob    float64 `json:"prob"`
	Samples int     `json:"samples"`
	Seed    uint64  `json:"seed"`
}

// mcRequest is the request document of both Monte-Carlo endpoints.
type mcRequest struct {
	computeRequest
	Beta    float64 `json:"beta,omitempty"`
	Prob    float64 `json:"prob,omitempty"`
	Samples int     `json:"samples,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
}

// params applies the Monte-Carlo defaults (samples defaults per endpoint)
// and validation.
func (r *mcRequest) params(samples, maxSamples int) (mcParams, error) {
	p := mcParams{Beta: 2.5, Prob: 0.5, Samples: samples, Seed: 1}
	if r.Beta != 0 {
		p.Beta = r.Beta
	}
	if r.Prob != 0 {
		p.Prob = r.Prob
	}
	if r.Samples != 0 {
		p.Samples = r.Samples
	}
	if r.Seed != 0 {
		p.Seed = r.Seed
	}
	if err := validateBeta(p.Beta); err != nil {
		return p, err
	}
	if err := validateProb(p.Prob); err != nil {
		return p, err
	}
	return p, validateSamples(p.Samples, maxSamples)
}

type reduceRequest mcRequest

func (r *reduceRequest) bind(maxSamples int) (any, computeFunc, error) {
	p, err := (*mcRequest)(r).params(200, maxSamples)
	if err != nil {
		return nil, nil, err
	}
	return p, func(ctx context.Context, t *compiled) (any, error) { return computeReduce(ctx, p, t) }, nil
}

// reduceStep is one level of the Algorithm-1 simulation with its estimated
// single-slot non-fading value.
type reduceStep struct {
	Level       int     `json:"level"`
	B           float64 `json:"b"`
	Repeats     int     `json:"repeats"`
	ValueMean   float64 `json:"value_mean"`
	ValueStderr float64 `json:"value_stderr"`
}

// reduceResponse reports the non-fading→Rayleigh reduction (Algorithm 1 /
// Theorem 2) applied to a uniform probability assignment.
type reduceResponse struct {
	Links   int     `json:"links"`
	Beta    float64 `json:"beta"`
	Prob    float64 `json:"prob"`
	Seed    uint64  `json:"seed"`
	Levels  int     `json:"levels"`
	LogStar int     `json:"logstar"`
	// TotalSlots is the Θ(log* n) slot count of the full simulation.
	TotalSlots int          `json:"total_slots"`
	Steps      []reduceStep `json:"steps"`
	BestLevel  int          `json:"best_level"`
	BestValue  float64      `json:"best_value"`
	// RayleighExact is E[successes] under Rayleigh fading at the requested
	// probability (Theorem 1, closed form).
	RayleighExact float64 `json:"rayleigh_exact"`
	// Ratio is RayleighExact / BestValue, the empirical Theorem-2 factor
	// (0 when the best step value is 0).
	Ratio float64 `json:"ratio"`
}

type estimateRequest mcRequest

func (r *estimateRequest) bind(maxSamples int) (any, computeFunc, error) {
	p, err := (*mcRequest)(r).params(1000, maxSamples)
	if err != nil {
		return nil, nil, err
	}
	return p, func(ctx context.Context, t *compiled) (any, error) { return computeEstimate(ctx, p, t) }, nil
}

// estimateResponse reports a Monte-Carlo estimate of the expected Rayleigh
// success count next to the Theorem-1 closed form it converges to.
type estimateResponse struct {
	Links   int     `json:"links"`
	Beta    float64 `json:"beta"`
	Prob    float64 `json:"prob"`
	Seed    uint64  `json:"seed"`
	Samples int     `json:"samples"`
	// Mean and Stderr are the Monte-Carlo estimate of E[successes].
	Mean   float64 `json:"mean"`
	Stderr float64 `json:"stderr"`
	// Exact is Σ_i Q_i(q,β), the closed-form expectation.
	Exact float64 `json:"exact"`
}

// topologyResponse is the POST /v1/topology body: the content-derived
// session handle compute requests pass as topology_ref.
type topologyResponse struct {
	TopologyRef string `json:"topology_ref"`
	Links       int    `json:"links"`
	// Created is false when the topology was already registered (the upload
	// only refreshed its LRU recency).
	Created bool `json:"created"`
}

// Health is the /healthz body: liveness, the worker identity a cluster
// coordinator needs — which process it is talking to, how wide it is, and
// how much shard work it is carrying — and the request tallies behind
// `raysched cluster -status`. internal/dist decodes this same type.
type Health struct {
	Status          string `json:"status"`
	Version         string `json:"version"`
	Instance        string `json:"instance"`
	GoMaxProcs      int    `json:"gomaxprocs"`
	ShardsInflight  int64  `json:"shards_inflight"`
	ShardsCompleted int64  `json:"shards_completed"`
	Stats           Stats  `json:"stats"`
}

// Stats are the tallies /metrics also renders, as JSON: per-endpoint
// request counts and latency quantiles, and the cache, singleflight,
// session, compiled-topology, batch and trace counters.
type Stats struct {
	Endpoints          []EndpointSummary `json:"endpoints"`
	CacheHits          uint64            `json:"cache_hits"`
	CacheMisses        uint64            `json:"cache_misses"`
	SingleflightShared uint64            `json:"singleflight_shared"`
	SessionHits        uint64            `json:"session_hits"`
	SessionMisses      uint64            `json:"session_misses"`
	// The compiled-topology memo (see Server.compile): computes that found
	// a compiled topology, found none, or were over the per-session byte
	// cap; the topologies built into it and the bytes it holds.
	CompiledHits   uint64 `json:"compiled_hits"`
	CompiledMisses uint64 `json:"compiled_misses"`
	CompiledSkips  uint64 `json:"compiled_skips"`
	CompiledBuilds uint64 `json:"compiled_builds"`
	CompiledBytes  int64  `json:"compiled_bytes"`
	BatchLines     uint64 `json:"batch_lines"`
	TracesRetained uint64 `json:"traces_retained"`
}

// EndpointSummary is the RED view of one endpoint label.
type EndpointSummary struct {
	Endpoint string `json:"endpoint"`
	// Requests counts completed requests across all status codes; Errors
	// counts the subset with status >= 400.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// P50/P95/P99 are the latency quantiles in seconds, the values of the
	// rayschedd_request_duration_quantile gauges; 0 without observations.
	P50 float64 `json:"p50_s"`
	P95 float64 `json:"p95_s"`
	P99 float64 `json:"p99_s"`
}
