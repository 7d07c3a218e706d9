package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rayfade/internal/geom"
	"rayfade/internal/netio"
	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// testTopology returns the canonical netio serialization of a small random
// network with n links.
func testTopology(t *testing.T, n int, seed uint64) []byte {
	t.Helper()
	cfg := network.Figure1Config()
	cfg.N = n
	net, err := network.Random(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netio.Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends body to path and returns the response and its full body.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// reqBody builds a request document embedding the topology plus extra
// top-level fields.
func reqBody(t *testing.T, topology []byte, extra map[string]any) []byte {
	t.Helper()
	doc := map[string]any{"network": json.RawMessage(topology)}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScheduleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 20, 1)
	for _, algo := range []string{"greedy", "weighted", "powercontrol"} {
		resp, body := post(t, ts, "/v1/schedule", reqBody(t, topo, map[string]any{"algorithm": algo}))
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", algo, resp.StatusCode, body)
		}
		var out scheduleResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if out.Links != 20 || out.Size == 0 || out.Size != len(out.Set) {
			t.Fatalf("%s: implausible response %+v", algo, out)
		}
		if out.Lemma2Floor <= 0 || out.Lemma2Floor >= out.Value {
			t.Fatalf("%s: lemma-2 floor %g vs value %g", algo, out.Lemma2Floor, out.Value)
		}
		// Theorem 1: the fading expectation of a feasible set sits above the
		// Lemma-2 floor (size/e).
		if algo != "weighted" && out.ExpectedRayleigh < out.Lemma2Floor {
			t.Fatalf("%s: E[rayleigh] %g below floor %g", algo, out.ExpectedRayleigh, out.Lemma2Floor)
		}
		if algo == "powercontrol" && len(out.Powers) != out.Size {
			t.Fatalf("powers %d for set of %d", len(out.Powers), out.Size)
		}
	}
}

func TestLatencyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 15, 2)
	cases := []map[string]any{
		{"scheduler": "repeated", "model": "nonfading"},
		{"scheduler": "repeated", "model": "rayleigh", "seed": 7},
		{"scheduler": "aloha", "model": "nonfading", "prob": 0.2, "max_slots": 100000},
		{"scheduler": "aloha", "model": "rayleigh", "prob": 0.2, "max_slots": 100000},
	}
	for _, c := range cases {
		resp, body := post(t, ts, "/v1/latency", reqBody(t, topo, c))
		if resp.StatusCode != 200 {
			t.Fatalf("%v: status %d: %s", c, resp.StatusCode, body)
		}
		var out latencyResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Done || out.Slots <= 0 {
			t.Fatalf("%v: schedule incomplete: %+v", c, out)
		}
		if out.Model == "rayleigh" && out.Repeats != 4 {
			t.Fatalf("rayleigh repeats %d, want the Section-4 factor 4", out.Repeats)
		}
	}
}

// boundaryTopology serializes the two-link topology {(0,0)→(1,0)},
// {(500,0)→(500.5,0)} at α 2 and the given noise (only the first link when
// single). At noise 0.5 and β 2, link 0's own gain 1 equals β·ν exactly,
// so its SINR alone is exactly β.
func boundaryTopology(t *testing.T, noise float64, single bool) []byte {
	t.Helper()
	net := &network.Network{
		Links: []network.Link{
			{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 1, Y: 0}, Power: 1, Weight: 1},
			{Sender: geom.Point{X: 500, Y: 0}, Receiver: geom.Point{X: 500.5, Y: 0}, Power: 1, Weight: 1},
		},
		Metric: geom.Euclidean{}, Alpha: 2, Noise: noise,
	}
	if single {
		net.Links = net.Links[:1]
	}
	var buf bytes.Buffer
	if err := netio.Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLatencyAtAloneBoundary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{"beta": 2, "scheduler": "repeated"}
	resp, body := post(t, ts, "/v1/latency", reqBody(t, boundaryTopology(t, 0.5, false), req))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out latencyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Done || out.Slots != 2 {
		t.Fatalf("schedule %+v, want both links served in two slots", out)
	}
	// A hair more noise and link 0 can no longer reach β alone: 422.
	resp, body = post(t, ts, "/v1/latency", reqBody(t, boundaryTopology(t, 0.5000001, false), req))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("noise-dominated link: status %d: %s", resp.StatusCode, body)
	}
}

func TestScheduleAtAloneBoundary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, "/v1/schedule", reqBody(t, boundaryTopology(t, 0.5, true),
		map[string]any{"beta": 2, "algorithm": "greedy"}))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"set":[0]`)) {
		t.Fatalf("greedy on the lone boundary link: %s, want \"set\":[0]", body)
	}
}

func TestReduceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 12, 3)
	resp, body := post(t, ts, "/v1/reduce", reqBody(t, topo, map[string]any{"samples": 30, "prob": 0.6}))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out reduceResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Levels == 0 || len(out.Steps) != out.Levels || out.TotalSlots == 0 {
		t.Fatalf("implausible reduction: %+v", out)
	}
	if out.RayleighExact <= 0 {
		t.Fatalf("rayleigh exact %g", out.RayleighExact)
	}
}

func TestEstimateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 12, 4)
	resp, body := post(t, ts, "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 4000, "prob": 0.5}))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out estimateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	// The Monte-Carlo mean must agree with the Theorem-1 closed form within
	// a generous multiple of the standard error.
	if diff := out.Mean - out.Exact; diff > 6*out.Stderr || diff < -6*out.Stderr {
		t.Fatalf("mean %g vs exact %g (stderr %g)", out.Mean, out.Exact, out.Stderr)
	}
}

func TestMalformedBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 8, 5)
	for _, path := range []string{"/v1/schedule", "/v1/latency", "/v1/reduce", "/v1/estimate"} {
		for name, body := range map[string][]byte{
			"not json":        []byte("{nope"),
			"unknown field":   reqBody(t, topo, map[string]any{"bogus": 1}),
			"missing network": []byte(`{}`),
			"trailing data":   append(reqBody(t, topo, nil), []byte(`{"x":1}`)...),
			"bad topology":    []byte(`{"network":{"alpha":-1,"links":[]}}`),
		} {
			resp, out := post(t, ts, path, body)
			if resp.StatusCode != 400 {
				t.Errorf("%s %s: status %d: %s", path, name, resp.StatusCode, out)
			}
			var eb errorBody
			if err := json.Unmarshal(out, &eb); err != nil || eb.Error == "" {
				t.Errorf("%s %s: error body %q", path, name, out)
			}
		}
	}
}

func TestBadParams(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSamples: 100})
	topo := testTopology(t, 8, 5)
	cases := []struct {
		path  string
		extra map[string]any
	}{
		{"/v1/schedule", map[string]any{"algorithm": "magic"}},
		{"/v1/schedule", map[string]any{"beta": -1}},
		{"/v1/latency", map[string]any{"scheduler": "psychic"}},
		{"/v1/latency", map[string]any{"model": "rician"}},
		{"/v1/latency", map[string]any{"prob": 1.5}},
		{"/v1/reduce", map[string]any{"prob": 2.0}},
		{"/v1/reduce", map[string]any{"samples": 101}},
		{"/v1/estimate", map[string]any{"samples": -3}},
	}
	for _, c := range cases {
		resp, out := post(t, ts, c.path, reqBody(t, topo, c.extra))
		if resp.StatusCode != 400 {
			t.Errorf("%s %v: status %d: %s", c.path, c.extra, resp.StatusCode, out)
		}
	}
}

func TestOversizedTopologyAndBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxLinks: 10})
	topo := testTopology(t, 20, 6)
	resp, out := post(t, ts, "/v1/schedule", reqBody(t, topo, nil))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized topology: status %d: %s", resp.StatusCode, out)
	}

	_, tsSmall := newTestServer(t, Config{MaxBodyBytes: 64})
	resp, out = post(t, tsSmall, "/v1/schedule", reqBody(t, topo, nil))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d: %s", resp.StatusCode, out)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSamples: 100_000_000})
	topo := testTopology(t, 60, 7)
	// A million-sample estimate on 60 links cannot finish in a millisecond;
	// the context poll inside the sampling loop must convert the deadline
	// into 504.
	resp, out := post(t, ts, "/v1/estimate",
		reqBody(t, topo, map[string]any{"samples": 100_000_000, "timeout_ms": 1}))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
}

func TestCacheHitByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 15, 8)
	body := reqBody(t, topo, map[string]any{"samples": 500, "seed": 42})

	r1, b1 := post(t, ts, "/v1/estimate", body)
	r2, b2 := post(t, ts, "/v1/estimate", body)
	if r1.StatusCode != 200 || r2.StatusCode != 200 {
		t.Fatalf("status %d / %d", r1.StatusCode, r2.StatusCode)
	}
	if r1.Header.Get("X-Cache") != "miss" || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache %q then %q, want miss then hit", r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cache hit not byte-identical:\n%s\n%s", b1, b2)
	}

	// A whitespace-reformatted topology is the same canonical network, so it
	// must hit the same cache entry.
	var compact bytes.Buffer
	if err := json.Compact(&compact, topo); err != nil {
		t.Fatal(err)
	}
	r3, b3 := post(t, ts, "/v1/estimate", reqBody(t, compact.Bytes(), map[string]any{"samples": 500, "seed": 42}))
	if r3.Header.Get("X-Cache") != "hit" || !bytes.Equal(b1, b3) {
		t.Fatalf("canonicalization miss: X-Cache=%q", r3.Header.Get("X-Cache"))
	}

	// Different seed ⇒ different key ⇒ different bytes.
	r4, b4 := post(t, ts, "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 500, "seed": 43}))
	if r4.Header.Get("X-Cache") != "miss" || bytes.Equal(b1, b4) {
		t.Fatal("distinct seed must not share a cache entry")
	}
}

func TestOverloadAnswers429(t *testing.T) {
	// The short DefaultTimeout lets the saturating requests die quickly
	// once the 429 has been observed.
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, MaxSamples: 100_000_000,
		DefaultTimeout: 2 * time.Second})
	topo := testTopology(t, 60, 9)
	slow := reqBody(t, topo, map[string]any{"samples": 50_000_000})

	// Occupy the single worker, then fill the single queue slot.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Vary the seed so these are cache misses that truly compute.
			body := reqBody(t, topo, map[string]any{"samples": 50_000_000, "seed": 1000 + i})
			post(t, ts, "/v1/estimate", body)
		}(i)
	}
	// Wait until the worker is busy and the queue holds the second job.
	for s.pool.InFlight() < 1 || s.pool.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	resp, out := post(t, ts, "/v1/estimate", slow)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	wg.Wait()
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 8, 10)
	post(t, ts, "/v1/schedule", reqBody(t, topo, nil))
	post(t, ts, "/v1/schedule", []byte("{bad"))

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var h Health
	if err := json.Unmarshal(hb, &h); err != nil || h.Status != "ok" || h.Version == "" {
		t.Fatalf("healthz: %s", hb)
	}
	// The stats object carries the same tallies /metrics renders below.
	var sched *EndpointSummary
	for i, ep := range h.Stats.Endpoints {
		if ep.Endpoint == "/v1/schedule" {
			sched = &h.Stats.Endpoints[i]
		}
	}
	if sched == nil || sched.Requests != 2 || sched.Errors != 1 || sched.P50 <= 0 || sched.P50 > sched.P99 {
		t.Fatalf("healthz stats for /v1/schedule: %+v in %s", sched, hb)
	}
	if h.Stats.CacheMisses != 1 {
		t.Fatalf("healthz cache misses %d, want 1: %s", h.Stats.CacheMisses, hb)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		`rayschedd_requests_total{endpoint="/v1/schedule",code="200"} 1`,
		`rayschedd_requests_total{endpoint="/v1/schedule",code="400"} 1`,
		"rayschedd_queue_depth",
		"rayschedd_cache_hit_ratio",
		"rayschedd_in_flight",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestConcurrentHammer drives the daemon from 32 goroutines mixing cacheable
// repeats and distinct requests across endpoints; run with -race this is the
// pool/cache/metrics concurrency proof. Every response must be 200 or 429,
// and identical requests must produce identical bytes.
func TestConcurrentHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueSize: 256})
	topo := testTopology(t, 12, 11)

	shared := reqBody(t, topo, map[string]any{"samples": 200, "seed": 5})
	var mu sync.Mutex
	var sharedBody []byte

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var path string
				var body []byte
				switch (g + i) % 3 {
				case 0:
					path, body = "/v1/estimate", shared
				case 1:
					path, body = "/v1/schedule", reqBody(t, topo, map[string]any{"beta": 1.0 + float64(g%5)})
				default:
					path, body = "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 100, "seed": g*10 + i})
				}
				resp, out := post(t, ts, path, body)
				if resp.StatusCode != 200 && resp.StatusCode != 429 {
					t.Errorf("goroutine %d: %s status %d: %s", g, path, resp.StatusCode, out)
					return
				}
				if resp.StatusCode == 200 && bytes.Equal(body, shared) {
					mu.Lock()
					if sharedBody == nil {
						sharedBody = append([]byte(nil), out...)
					} else if !bytes.Equal(sharedBody, out) {
						t.Errorf("shared request returned differing bytes")
					}
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDrainRefusesPostsAndRecovers(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	topo := testTopology(t, 12, 5)
	body := reqBody(t, topo, map[string]any{"algorithm": "greedy"})

	// Healthy first: the request computes and healthz says ok.
	resp, _ := post(t, ts, "/v1/schedule", body)
	if resp.StatusCode != 200 {
		t.Fatalf("pre-drain status = %d", resp.StatusCode)
	}
	s.SetDraining(true)
	if !s.draining.Load() {
		t.Fatal("draining = false after SetDraining(true)")
	}
	resp, out := post(t, ts, "/v1/schedule", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 must carry Retry-After")
	}
	if !strings.Contains(string(out), "draining") {
		t.Fatalf("draining body %q does not say why", out)
	}

	// GETs stay live so the drain is observable.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("healthz during drain = %d, want 200", hr.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", health.Status)
	}

	// Drain is reversible: intake re-opens.
	s.SetDraining(false)
	resp, _ = post(t, ts, "/v1/schedule", body)
	if resp.StatusCode != 200 {
		t.Fatalf("post-drain status = %d", resp.StatusCode)
	}
	if s.Busy() {
		t.Fatal("Busy() with no work in flight")
	}
}
