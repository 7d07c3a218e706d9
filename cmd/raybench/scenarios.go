package main

// The scenario suite: each scenario isolates one hot path the ROADMAP's
// perf work targets, end to end. Setup (network generation, schedule
// construction, server start) happens outside the measured operation; the
// op closure is the steady-state work a production deployment repeats.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"rayfade/internal/capacity"
	"rayfade/internal/client"
	"rayfade/internal/fading"
	"rayfade/internal/faults"
	"rayfade/internal/latency"
	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/rng"
	"rayfade/internal/server"
	"rayfade/internal/sim"
	"rayfade/internal/sinr"
	"rayfade/internal/stats"
	"rayfade/internal/transform"
	"rayfade/internal/utility"
)

// scenario is one named measurement. quick scenarios form the PR smoke
// subset; the full suite adds the heavier end-to-end runs.
type scenario struct {
	name  string
	quick bool
	// units is how many logical units of work one op covers (batch lines,
	// fan width); 0 means 1. Recorded as the report's UnitsPerOp so
	// throughput gates can compare units/sec across differently-framed
	// scenarios.
	units int
	// setup builds the op under test and a cleanup (never nil). Errors
	// abort the whole run — a half-measured suite is worse than none.
	setup func() (op func(), cleanup func(), err error)
}

func noCleanup() {}

// benchNetwork draws the deterministic Figure-1-style instance scenarios
// share (same generator as bench_test.go's benchMatrix).
func benchNetwork(links int, seed uint64) (*network.Network, error) {
	cfg := network.Figure1Config()
	cfg.N = links
	return network.Random(cfg, rng.New(seed))
}

// scenarios returns the suite in execution order. Names are stable
// identifiers — compare keys reports by them, so renaming one orphans its
// baseline.
func scenarios() []scenario {
	list := []scenario{
		// One receiver's uniforms at the paper's 100 links: the batch
		// fading.Counter draws per receiver.
		{name: "rng/fill-open-100", quick: true, setup: func() (func(), func(), error) {
			src := rng.New(1)
			dst := make([]float64, 100)
			return func() { src.FillOpen(dst) }, noCleanup, nil
		}},
		{name: "fading/sample-dense-200", quick: true, setup: func() (func(), func(), error) {
			return sampleSINRsOp(200, 23, func(active []bool) {
				for i := range active {
					active[i] = true
				}
			})
		}},
		{name: "fading/sample-sparse-200", quick: true, setup: func() (func(), func(), error) {
			return sampleSINRsOp(200, 24, func(active []bool) {
				for i := 0; i < len(active); i += 10 {
					active[i] = true
				}
			})
		}},
		{name: "fading/count-dense-100", quick: true, setup: func() (func(), func(), error) {
			return countOp(1.0, 1)
		}},
		{name: "fading/count-half-100", quick: true, setup: func() (func(), func(), error) {
			return countOp(0.5, 1)
		}},
		{name: "fading/count-set-100", quick: true, setup: func() (func(), func(), error) {
			return countOp(0.5, 10)
		}},
		{name: "sinr/values-dense-200", quick: true, setup: func() (func(), func(), error) {
			net, err := benchNetwork(200, 23)
			if err != nil {
				return nil, nil, err
			}
			m := net.Gains()
			active := make([]bool, m.N)
			for i := range active {
				active[i] = true
			}
			vals := make([]float64, m.N)
			return func() { sinr.ValuesInto(m, active, vals) }, noCleanup, nil
		}},
		{name: "fading/expected-successes-100", quick: true, setup: func() (func(), func(), error) {
			net, err := benchNetwork(100, 1)
			if err != nil {
				return nil, nil, err
			}
			m := net.Gains()
			q := fading.UniformProbs(m.N, 0.5)
			return func() { fading.ExpectedSuccessesExact(m, q, 2.5) }, noCleanup, nil
		}},
		{name: "capacity/greedy-oneshot-100", quick: true, setup: func() (func(), func(), error) {
			net, err := benchNetwork(100, 4)
			if err != nil {
				return nil, nil, err
			}
			m := net.Gains()
			order := capacity.LengthOrder(net)
			return func() { capacity.GreedyAffectance(m, 2.5, capacity.DefaultTau, order) }, noCleanup, nil
		}},
		{name: "latency/repeated-capacity-100", quick: true, setup: func() (func(), func(), error) {
			net, err := benchNetwork(100, 7)
			if err != nil {
				return nil, nil, err
			}
			m := net.Gains()
			capFn := latency.GreedyCapacity(capacity.LengthOrder(net), capacity.DefaultTau)
			return func() {
				if _, err := latency.RepeatedCapacityCtx(context.Background(), m, 2.5, capFn); err != nil {
					panic(fmt.Sprintf("raybench: latency scenario: %v", err))
				}
			}, noCleanup, nil
		}},
		{name: "transform/lemma2-transfer-100", quick: true, setup: func() (func(), func(), error) {
			net, err := benchNetwork(100, 4)
			if err != nil {
				return nil, nil, err
			}
			m := net.Gains()
			set, err := capacity.GreedyAffectanceCtx(context.Background(), m, 2.5, capacity.DefaultTau, capacity.LengthOrder(net))
			if err != nil {
				return nil, nil, err
			}
			us := utility.Uniform(utility.Binary{Beta: 2.5})
			return func() { transform.Transfer(m, set, us) }, noCleanup, nil
		}},
	}
	for _, workers := range []int{1, 4, 8} {
		w := workers
		list = append(list, scenario{
			name:  fmt.Sprintf("sim/figure1-small/workers=%d", w),
			quick: true,
			setup: func() (func(), func(), error) {
				cfg := sim.Figure1Config{
					Networks:      8,
					Links:         40,
					TransmitSeeds: 2,
					FadingSeeds:   2,
					Probs:         stats.Linspace(0.2, 1.0, 3),
					Seed:          19,
					Workers:       w,
				}
				return func() { sim.RunFigure1Ctx(context.Background(), cfg) }, noCleanup, nil
			},
		})
	}
	list = append(list,
		scenario{name: "server/estimate-compute", quick: true, setup: func() (func(), func(), error) {
			// Caching disabled and a fresh seed per request: every request
			// exercises admission, compute, and marshaling.
			return serverOp(server.Config{CacheSize: -1}, func(counter *atomic.Uint64) ([]byte, error) {
				topo, err := server.BenchTopology(40, 1)
				if err != nil {
					return nil, err
				}
				return server.BenchEstimateRequest(topo, 100, counter.Add(1))
			}, true)
		}},
		scenario{name: "server/estimate-cache-hit", quick: true, setup: func() (func(), func(), error) {
			// One fixed body: after the first request every repeat is
			// answered from its raw-body alias — hash the body, two LRU
			// lookups, write the cached bytes — with no decode, topology
			// parse or re-canonicalization: the daemon's best-case request
			// throughput.
			return serverOp(server.Config{}, func(*atomic.Uint64) ([]byte, error) {
				topo, err := server.BenchTopology(40, 1)
				if err != nil {
					return nil, err
				}
				return server.BenchEstimateRequest(topo, 100, 1)
			}, false)
		}},
		scenario{name: "server/session-hit", quick: true, setup: func() (func(), func(), error) {
			// The same cache-hit steady state as estimate-cache-hit, but the
			// topology rides as a session ref. Ref bodies are never aliased
			// (their status depends on session residency), so every hit
			// decodes the small body, resolves the session and re-keys;
			// estimate-cache-hit's alias skips all three, and the gap
			// between the two is the cost of that canonical path.
			return sessionServerOp(server.Config{}, 40, func(ref string, _ uint64) ([]byte, error) {
				return server.BenchEstimateRefRequest(ref, 100, 1)
			}, false)
		}},
		scenario{name: "server/estimate-ref-compute", quick: true, setup: func() (func(), func(), error) {
			// serve-cold's by-ref estimate: a 100-link session, caching
			// disabled and a fresh seed per request, so every request
			// resolves the ref and computes 200 samples on the session's
			// topology. Against server/estimate-compute it isolates what a
			// session saves beyond the parse: the compiled gain matrix and
			// counter plan the daemon keeps on it.
			return sessionServerOp(server.Config{CacheSize: -1}, 100, func(ref string, seq uint64) ([]byte, error) {
				return server.BenchEstimateRefRequest(ref, 200, seq)
			}, true)
		}},
		scenario{name: "server/cluster-trace-overhead", quick: true, setup: clusterTraceOverheadOp},
		scenario{name: "server/singleflight", quick: true, units: singleflightFan, setup: singleflightOp},
		scenario{name: "server/batch-throughput", quick: true, units: batchLines, setup: batchThroughputOp},
		scenario{name: "server/goodput-under-faults", quick: false, setup: goodputUnderFaultsOp},
	)
	return list
}

const (
	// singleflightFan is the burst width of server/singleflight: identical
	// concurrent requests per op, of which one computes and the rest share.
	singleflightFan = 8
	// batchLines is the request count of one server/batch-throughput op.
	// Kept well under the scenario's cache size so a steady-state batch is
	// all cache hits (the framing cost is what the scenario isolates).
	batchLines = 256
)

// startBenchServer boots an httptest rayschedd and registers the bench
// topology with links links as a session, returning the base URL, the
// session ref, and a cleanup.
func startBenchServer(cfg server.Config, links int) (ts *httptest.Server, ref string, cleanup func(), err error) {
	srv := server.New(cfg)
	ts = httptest.NewServer(srv)
	cleanup = func() {
		ts.Close()
		srv.Close()
	}
	topo, err := server.BenchTopology(links, 1)
	if err != nil {
		cleanup()
		return nil, "", nil, err
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/topology", "application/json", bytes.NewReader(topo))
	if err != nil {
		cleanup()
		return nil, "", nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		cleanup()
		return nil, "", nil, fmt.Errorf("upload bench topology: status %d", resp.StatusCode)
	}
	return ts, server.TopologyRef(topo), cleanup, nil
}

// sessionServerOp starts a rayschedd with the bench topology of links links
// registered and returns estimateOp's op over session-ref bodies.
func sessionServerOp(cfg server.Config, links int, body func(ref string, seq uint64) ([]byte, error), perRequest bool) (func(), func(), error) {
	ts, ref, cleanup, err := startBenchServer(cfg, links)
	if err != nil {
		return nil, nil, err
	}
	op, err := estimateOp(ts, func(counter *atomic.Uint64) ([]byte, error) { return body(ref, counter.Add(1)) }, perRequest)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return op, cleanup, nil
}

// singleflightOp measures the collapse of concurrent identical computations:
// one op fires singleflightFan identical requests at a cache-disabled daemon,
// so every burst recomputes — once — and the rest ride the flight. Caching is
// off precisely so the singleflight path (not the LRU) is what answers.
func singleflightOp() (func(), func(), error) {
	ts, ref, cleanup, err := startBenchServer(server.Config{CacheSize: -1}, 40)
	if err != nil {
		return nil, nil, err
	}
	payload, err := server.BenchEstimateRefRequest(ref, 100, 1)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	httpc := ts.Client()
	op := func() {
		var wg sync.WaitGroup
		for i := 0; i < singleflightFan; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := httpc.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(payload))
				if err != nil {
					panic(fmt.Sprintf("raybench: singleflight scenario: %v", err))
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					panic(fmt.Sprintf("raybench: singleflight scenario: status %d", resp.StatusCode))
				}
			}()
		}
		wg.Wait()
	}
	return op, cleanup, nil
}

// batchThroughputOp measures the NDJSON batch endpoint in its steady state:
// one op posts a batchLines-line batch against the session topology. The
// cache is sized above the batch so after the first (warmup) pass every line
// is a hit — the measurement isolates framing and per-line dispatch, which
// is exactly what batching amortizes against the per-request path.
func batchThroughputOp() (func(), func(), error) {
	ts, ref, cleanup, err := startBenchServer(server.Config{CacheSize: 1024}, 40)
	if err != nil {
		return nil, nil, err
	}
	body, err := server.BenchBatchBody(ref, 100, batchLines)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	httpc := ts.Client()
	op := func() {
		resp, err := httpc.Post(ts.URL+"/v1/estimate/batch", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			panic(fmt.Sprintf("raybench: batch scenario: %v", err))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			panic(fmt.Sprintf("raybench: batch scenario: status %d", resp.StatusCode))
		}
	}
	return op, cleanup, nil
}

// clusterTraceOverheadOp measures the per-request cost of cluster tracing on
// the shard path: every op posts a /v1/shard request carrying X-Trace-Context,
// so the daemon routes its request span into a per-trace collector instead of
// the server ring. Caching is off so each op recomputes — the delta against an
// untraced run is pure trace-collection overhead. Setup proves the contract
// the overhead is allowed to exist under: the response bytes with tracing on
// are identical to the bytes with tracing off, and the collected spans really
// are fetchable via GET /v1/trace/{id}.
func clusterTraceOverheadOp() (func(), func(), error) {
	srv := server.New(server.Config{CacheSize: -1})
	ts := httptest.NewServer(srv)
	cleanup := func() {
		ts.Close()
		srv.Close()
	}
	body, err := server.BenchShardRequest(7)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	httpc := ts.Client()
	traceID := "be9c5cc0de0ff00d0123456789abcdef"
	tc := obs.TraceContext{TraceID: traceID, ParentID: 0x1}
	post := func(traced bool) ([]byte, error) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/shard", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if traced {
			req.Header.Set(obs.HeaderTraceContext, tc.String())
		}
		resp, err := httpc.Do(req)
		if err != nil {
			return nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out)
		}
		return out, nil
	}
	plain, err := post(false)
	if err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("cluster-trace scenario untraced warmup: %w", err)
	}
	traced, err := post(true)
	if err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("cluster-trace scenario traced warmup: %w", err)
	}
	if !bytes.Equal(plain, traced) {
		cleanup()
		return nil, nil, fmt.Errorf("cluster-trace scenario: traced shard response differs from untraced (%d vs %d bytes) — tracing must never touch the payload", len(traced), len(plain))
	}
	resp, err := httpc.Get(ts.URL + "/v1/trace/" + traceID)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	var bundle obs.TraceBundle
	err = json.NewDecoder(resp.Body).Decode(&bundle)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(bundle.Spans) == 0 {
		cleanup()
		return nil, nil, fmt.Errorf("cluster-trace scenario: trace fetch status=%d spans=%d err=%v — collection is not working, overhead would measure nothing", resp.StatusCode, len(bundle.Spans), err)
	}
	op := func() {
		if _, err := post(true); err != nil {
			panic(fmt.Sprintf("raybench: cluster-trace scenario: %v", err))
		}
	}
	return op, cleanup, nil
}

// goodputUnderFaultsOp measures end-to-end goodput against a flaky daemon:
// the injector makes a fifth of requests fail transiently at admission and
// the occasional pool job error out, both surfacing as 503 + Retry-After,
// and the retrying client must still land every request. One op = one
// request completed despite the weather; the ns/op delta against
// server/estimate-compute is the price of the fault rate plus the retry
// machinery. (Panic faults are deliberately absent: a recovered panic is a
// terminal 500, which a correct client does not retry.)
func goodputUnderFaultsOp() (func(), func(), error) {
	inj, err := faults.Parse("seed=11,server.handler=error:0.2,pool.job=error:0.05")
	if err != nil {
		return nil, nil, err
	}
	prev := faults.Default()
	faults.SetDefault(inj)
	srv := server.New(server.Config{CacheSize: -1})
	ts := httptest.NewServer(srv)
	cleanup := func() {
		ts.Close()
		srv.Close()
		faults.SetDefault(prev)
	}
	c := client.New(client.Config{
		BaseURL:     ts.URL,
		HTTPClient:  ts.Client(),
		MaxAttempts: 10,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		JitterSeed:  3,
	})
	var counter atomic.Uint64
	op := func() {
		topo, err := server.BenchTopology(40, 1)
		if err != nil {
			panic(fmt.Sprintf("raybench: goodput scenario topology: %v", err))
		}
		body, err := server.BenchEstimateRequest(topo, 100, counter.Add(1))
		if err != nil {
			panic(fmt.Sprintf("raybench: goodput scenario body: %v", err))
		}
		out, status, err := c.PostJSON(context.Background(), "/v1/estimate", body)
		if err != nil {
			panic(fmt.Sprintf("raybench: goodput scenario: %v", err))
		}
		if status != http.StatusOK {
			panic(fmt.Sprintf("raybench: goodput scenario: terminal status %d: %s", status, out))
		}
	}
	return op, cleanup, nil
}

// sampleSINRsOp builds the allocation-free Rayleigh sampling op over a
// links-sized instance with the given activation pattern.
func sampleSINRsOp(links int, seed uint64, fill func(active []bool)) (func(), func(), error) {
	net, err := benchNetwork(links, seed)
	if err != nil {
		return nil, nil, err
	}
	m := net.Gains()
	active := make([]bool, m.N)
	fill(active)
	vals := make([]float64, m.N)
	idx := make([]int, 0, m.N)
	src := rng.New(25)
	return func() { fading.SampleSINRsInto(m, active, fading.RayleighGains{}, src, vals, idx) }, noCleanup, nil
}

// serverOp starts an httptest rayschedd and returns estimateOp's op on it.
func serverOp(cfg server.Config, body func(*atomic.Uint64) ([]byte, error), perRequest bool) (func(), func(), error) {
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	cleanup := func() {
		ts.Close()
		srv.Close()
	}
	op, err := estimateOp(ts, body, perRequest)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return op, cleanup, nil
}

// estimateOp returns an op that posts one /v1/estimate request to ts and
// drains the response. When perRequest is true the body builder runs per
// call (fresh seed → cache miss); otherwise the body is built once and
// reused (cache hit after the first call).
func estimateOp(ts *httptest.Server, body func(*atomic.Uint64) ([]byte, error), perRequest bool) (func(), error) {
	var counter atomic.Uint64
	var fixed []byte
	if !perRequest {
		b, err := body(&counter)
		if err != nil {
			return nil, err
		}
		fixed = b
	}
	client := ts.Client()
	return func() {
		payload := fixed
		if perRequest {
			b, err := body(&counter)
			if err != nil {
				panic(fmt.Sprintf("raybench: server scenario body: %v", err))
			}
			payload = b
		}
		resp, err := client.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(payload))
		if err != nil {
			panic(fmt.Sprintf("raybench: server scenario: %v", err))
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			panic(fmt.Sprintf("raybench: server scenario: status %d", resp.StatusCode))
		}
	}, nil
}

// countOp times the Figure-1 counting kernel at β = 2.5 on a
// paper-settings 100-link network with each link active with probability
// density: one fading.Counter.Prepare of that set and realizations counts
// of it (one is a Count). The Counter is built in setup, as the experiments
// build it once per matrix.
func countOp(density float64, realizations int) (func(), func(), error) {
	net, err := benchNetwork(100, 1)
	if err != nil {
		return nil, nil, err
	}
	c := fading.NewCounter(net.Gains())
	src := rng.New(3)
	active := make([]bool, net.N())
	for i := range active {
		active[i] = src.Bernoulli(density)
	}
	return func() {
		c.Prepare(active)
		for r := 0; r < realizations; r++ {
			c.Realize(2.5, src, nil)
		}
	}, noCleanup, nil
}
