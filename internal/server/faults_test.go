package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rayfade/internal/faults"
	"rayfade/internal/leakcheck"
)

// withFaults installs a parsed injector for the test's duration.
func withFaults(t *testing.T, spec string) *faults.Injector {
	t.Helper()
	inj, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faults.SetDefault(inj)
	t.Cleanup(func() { faults.SetDefault(nil) })
	return inj
}

func TestHandlerTransientFaultAnswers503WithRetryAfter(t *testing.T) {
	inj := withFaults(t, "server.handler=error:1")
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 8, 1)
	resp, body := post(t, ts, "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 100}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("injected 503 without Retry-After (clients could not back off)")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("malformed error body %q: %v", body, err)
	}
	if inj.Fired() == 0 {
		t.Fatal("fault never fired")
	}
}

// TestHandlerFaultAndDrainOnAliasHit: a body answered from its raw-body
// alias fails under an armed server.handler fault exactly as a canonical
// cache hit does, and a draining server refuses it like any other POST.
func TestHandlerFaultAndDrainOnAliasHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	topo := testTopology(t, 8, 1)
	aliased := reqBody(t, topo, map[string]any{"samples": 100})
	var canonical bytes.Buffer // same estimate, never posted: no alias
	if err := json.Indent(&canonical, aliased, "", " "); err != nil {
		t.Fatal(err)
	}
	if resp, body := post(t, ts, "/v1/estimate", aliased); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, body)
	}
	if s.aliases.len() != 1 {
		t.Fatalf("%d aliases after warm-up, want 1", s.aliases.len())
	}

	withFaults(t, "server.handler=error:1")
	var answers [2][]byte
	for i, doc := range [][]byte{aliased, canonical.Bytes()} {
		resp, body := post(t, ts, "/v1/estimate", doc)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("request %d under fault: status %d, Retry-After %q: %s",
				i, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
		answers[i] = body
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Fatalf("alias hit and canonical hit fail differently:\n%s\nvs\n%s", answers[0], answers[1])
	}
	faults.SetDefault(nil)

	s.SetDraining(true)
	resp, body := post(t, ts, "/v1/estimate", aliased)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
		!bytes.Contains(body, []byte("draining")) {
		t.Fatalf("aliased body while draining: status %d, Retry-After %q: %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	s.SetDraining(false)
	if resp, body := post(t, ts, "/v1/estimate", aliased); resp.StatusCode != http.StatusOK ||
		resp.Header.Get("X-Cache") != sourceHit {
		t.Fatalf("after drain: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
}

func TestHandlerPanicFaultAnswers500AndDaemonSurvives(t *testing.T) {
	withFaults(t, "server.handler=panic:1")
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 8, 1)
	resp, body := post(t, ts, "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 100}))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "panic") {
		t.Fatalf("500 body should carry the recovered panic: %q", body)
	}

	// Disarm and verify the daemon still serves normally: the panic was
	// contained to the one request.
	faults.SetDefault(nil)
	resp2, body2 := post(t, ts, "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 100}))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: status %d: %s", resp2.StatusCode, body2)
	}
}

func TestPoolJobFaultRecoveredInto500(t *testing.T) {
	withFaults(t, "pool.job=panic:1")
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 8, 1)
	resp, body := post(t, ts, "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 100}))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("panic")) {
		t.Fatalf("body %q should name the recovered panic", body)
	}
	// The worker survived; with faults off the same pool serves fine.
	faults.SetDefault(nil)
	if resp, body := post(t, ts, "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 100})); resp.StatusCode != 200 {
		t.Fatalf("worker did not survive injected panic: %d %s", resp.StatusCode, body)
	}
}

func TestEveryComputeEndpointSurvivesFaultMatrix(t *testing.T) {
	// The acceptance matrix: with each fault kind armed on both request-path
	// sites, every endpoint must answer a well-formed JSON error (or succeed,
	// for delay) and the daemon must keep serving afterwards.
	topo := testTopology(t, 8, 1)
	endpoints := []struct{ path string }{
		{"/v1/schedule"}, {"/v1/latency"}, {"/v1/reduce"}, {"/v1/estimate"},
	}
	specs := []string{
		"server.handler=error:1",
		"server.handler=panic:1",
		"server.handler=delay:1:5ms",
		"pool.job=panic:1",
		"pool.job=error:1",
		"pool.job=delay:1:5ms",
	}
	_, ts := newTestServer(t, Config{})
	for _, spec := range specs {
		inj, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		faults.SetDefault(inj)
		for _, ep := range endpoints {
			resp, body := post(t, ts, ep.path, reqBody(t, topo, nil))
			switch resp.StatusCode {
			case http.StatusOK, http.StatusInternalServerError, http.StatusServiceUnavailable:
			default:
				t.Fatalf("%s under %q: unexpected status %d: %s", ep.path, spec, resp.StatusCode, body)
			}
			if !json.Valid(body) {
				t.Fatalf("%s under %q: non-JSON body %q", ep.path, spec, body)
			}
		}
	}
	faults.SetDefault(nil)
	for _, ep := range endpoints {
		if resp, body := post(t, ts, ep.path, reqBody(t, topo, nil)); resp.StatusCode != 200 {
			t.Fatalf("%s after fault matrix: status %d: %s", ep.path, resp.StatusCode, body)
		}
	}
}

func TestShedRequestsCounterAndDynamicRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, MaxSamples: 100_000_000,
		DefaultTimeout: 2 * time.Second})
	topo := testTopology(t, 60, 9)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := reqBody(t, topo, map[string]any{"samples": 50_000_000, "seed": 2000 + i})
			post(t, ts, "/v1/estimate", body)
		}(i)
	}
	for s.pool.InFlight() < 1 || s.pool.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	resp, out := post(t, ts, "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 50_000_000}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive whole-second hint", ra)
	}
	wg.Wait()

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	text, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text, []byte(`rayschedd_shed_requests_total{endpoint="/v1/estimate"} 1`)) {
		t.Fatalf("/metrics missing shed counter:\n%s", text)
	}
}

func TestMetricsOmitShedSeriesWhenNothingShed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 8, 1)
	post(t, ts, "/v1/schedule", reqBody(t, topo, nil))
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	text, _ := io.ReadAll(r.Body)
	if bytes.Contains(text, []byte("rayschedd_shed_requests_total")) {
		t.Fatalf("shed series rendered with nothing shed:\n%s", text)
	}
}

func TestOversizedBodyRejected413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	big := append([]byte(`{"network":"`), bytes.Repeat([]byte("x"), 4096)...)
	big = append(big, []byte(`"}`)...)
	for _, path := range []string{"/v1/schedule", "/v1/latency", "/v1/reduce", "/v1/estimate"} {
		resp, body := post(t, ts, path, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %s", path, resp.StatusCode, body)
		}
	}
}

// ---- pool shutdown semantics (satellite) ----------------------------------

func TestPoolCloseIdempotentAndLeakFree(t *testing.T) {
	leakcheck.Check(t)
	p := NewPool(4, 16)
	var ran atomic.Int32
	for i := 0; i < 8; i++ {
		go p.Do(context.Background(), func(context.Context) { ran.Add(1) })
	}
	time.Sleep(10 * time.Millisecond)
	p.Close()
	p.Close()
	p.Close()
	if err := p.Do(context.Background(), func(context.Context) {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Do after Close = %v, want ErrPoolClosed", err)
	}
	if got := p.InFlight(); got != 0 {
		t.Fatalf("in-flight after Close: %d", got)
	}
}

func TestPoolCloseFailsQueuedJobsDeterministically(t *testing.T) {
	leakcheck.Check(t)
	p := NewPool(1, 8)
	block := make(chan struct{})
	started := make(chan struct{})
	inflightErr := make(chan error, 1)
	go func() {
		inflightErr <- p.Do(context.Background(), func(context.Context) {
			close(started)
			<-block
		})
	}()
	<-started

	// Queue several jobs behind the blocked worker; none may ever run.
	const queued = 4
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			errs <- p.Do(context.Background(), func(context.Context) {
				t.Error("queued-but-unstarted job ran during shutdown")
			})
		}()
	}
	for p.QueueDepth() < queued {
		time.Sleep(time.Millisecond)
	}

	// Close from another goroutine (it blocks on the in-flight job), then
	// release the worker.
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	time.Sleep(10 * time.Millisecond)
	close(block)
	<-closed

	// The in-flight job completed normally; every queued job failed with the
	// deterministic shutdown error, not a hang and not execution.
	if err := <-inflightErr; err != nil {
		t.Fatalf("in-flight job: %v", err)
	}
	for i := 0; i < queued; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrPoolClosed) {
				t.Fatalf("queued job err = %v, want ErrPoolClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued job submitter hung after Close")
		}
	}
}

func TestPoolWorkersAccessor(t *testing.T) {
	p := NewPool(3, 1)
	defer p.Close()
	if p.Workers() != 3 {
		t.Fatalf("Workers = %d", p.Workers())
	}
}
