package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rayfade/internal/obs"
)

// uploadTopology posts a topology document and decodes the session handle.
func uploadTopology(t *testing.T, ts *httptest.Server, topo []byte) topologyResponse {
	t.Helper()
	resp, body := post(t, ts, "/v1/topology", topo)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var out topologyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("upload: decode: %v", err)
	}
	return out
}

// metricsText renders the server's Prometheus output.
func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	var sb strings.Builder
	if _, err := s.metrics.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestSessionStoreLRUAndStats(t *testing.T) {
	store := NewSessionStore(2)
	canon := func(i int) []byte { return []byte(fmt.Sprintf("topology-%d", i)) }

	ref0, created, err := store.Put(canon(0), nil)
	if err != nil || !created {
		t.Fatalf("first put: created=%v err=%v", created, err)
	}
	if want := TopologyRef(canon(0)); ref0 != want {
		t.Fatalf("ref %q, want content-derived %q", ref0, want)
	}
	// Re-upload refreshes recency, does not create.
	if _, created, _ := store.Put(canon(0), nil); created {
		t.Fatal("re-upload reported created=true")
	}
	ref1, _, _ := store.Put(canon(1), nil)
	// 0 is refreshed again, so inserting a third evicts 1 — the true LRU.
	store.Put(canon(0), nil)
	ref2, _, _ := store.Put(canon(2), nil)
	if _, _, ok := store.Get(ref1); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, ref := range []string{ref0, ref2} {
		if _, _, ok := store.Get(ref); !ok {
			t.Fatalf("recent entry %s evicted", ref)
		}
	}
	hits, misses, evictions := store.stats()
	if hits != 2 || misses != 1 || evictions != 1 {
		t.Fatalf("stats hits=%d misses=%d evictions=%d, want 2/1/1", hits, misses, evictions)
	}
}

func TestSessionStoreDisabled(t *testing.T) {
	store := NewSessionStore(0)
	if _, _, err := store.Put([]byte("x"), nil); err != ErrSessionsDisabled {
		t.Fatalf("Put on disabled store: %v, want ErrSessionsDisabled", err)
	}
	if _, _, ok := store.Get(TopologyRef([]byte("x"))); ok {
		t.Fatal("Get on disabled store returned ok")
	}
}

// TestSessionStoreConcurrent hammers upload/lookup/evict from many
// goroutines under a tiny capacity; under -race this is the data-race
// coverage for the store. Correctness asserts: the store never exceeds its
// bound and the churn produced real evictions.
func TestSessionStoreConcurrent(t *testing.T) {
	const (
		capacity   = 4
		workers    = 8
		iterations = 200
		topologies = 16
	)
	store := NewSessionStore(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				id := (w + i) % topologies
				canon := []byte(fmt.Sprintf("topology-%d", id))
				switch i % 3 {
				case 0, 1:
					if _, _, err := store.Put(canon, nil); err != nil {
						panic(err)
					}
				default:
					store.Get(TopologyRef(canon))
				}
				if n := store.len(); n > capacity {
					panic(fmt.Sprintf("store grew to %d, cap %d", n, capacity))
				}
			}
		}(w)
	}
	wg.Wait()
	if n := store.len(); n > capacity {
		t.Fatalf("store holds %d entries, cap %d", n, capacity)
	}
	if _, _, evictions := store.stats(); evictions == 0 {
		t.Fatal("no evictions despite churn far beyond capacity")
	}

	// The trace collectors ride the same LRU: concurrent first requests
	// under one new trace ID must all record into the one collector add
	// created, or some of their spans would land in an orphan.
	traces := newLRU[string, *obs.Tracer](capacity)
	got := make([]*obs.Tracer, workers)
	var created atomic.Int32
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr, isNew := traces.add("4b8bc3c7d5db6fea", newTraceTracer)
			got[w] = tr
			if isNew {
				created.Add(1)
			}
		}(w)
	}
	wg.Wait()
	for w, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("goroutine %d got collector %p, goroutine 0 got %p", w, tr, got[0])
		}
	}
	if n := created.Load(); n != 1 {
		t.Fatalf("%d goroutines created the collector, want exactly 1", n)
	}
}

// TestTopologySessionLifecycle is the acceptance path: upload once, compute
// by ref, and the response bytes must be identical to the inline-topology
// request. Then eviction: the ref answers 404 with a re-upload hint, and
// re-uploading the same content restores the same handle.
func TestTopologySessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 2})
	topo := testTopology(t, 16, 1)

	up := uploadTopology(t, ts, topo)
	if up.TopologyRef != TopologyRef(topo) || up.Links != 16 || !up.Created {
		t.Fatalf("upload response %+v", up)
	}
	if again := uploadTopology(t, ts, topo); again.Created {
		t.Fatalf("re-upload reported created=true: %+v", again)
	}

	resp, inline := post(t, ts, "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 50, "seed": 7}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline estimate: status %d: %s", resp.StatusCode, inline)
	}
	refReq, _ := json.Marshal(map[string]any{"topology_ref": up.TopologyRef, "samples": 50, "seed": 7})
	resp, byRef := post(t, ts, "/v1/estimate", refReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ref estimate: status %d: %s", resp.StatusCode, byRef)
	}
	if !bytes.Equal(inline, byRef) {
		t.Fatalf("ref response differs from inline:\n%s\nvs\n%s", byRef, inline)
	}

	// Evict by uploading two more topologies into the 2-entry store.
	uploadTopology(t, ts, testTopology(t, 10, 2))
	uploadTopology(t, ts, testTopology(t, 10, 3))
	resp, body := post(t, ts, "/v1/estimate", refReq)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted ref: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("/v1/topology")) {
		t.Fatalf("404 body gives no re-upload hint: %s", body)
	}
	// Recovery: same content, same ref, same response bytes.
	if re := uploadTopology(t, ts, topo); !re.Created || re.TopologyRef != up.TopologyRef {
		t.Fatalf("re-upload after eviction: %+v", re)
	}
	resp, byRef2 := post(t, ts, "/v1/estimate", refReq)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(inline, byRef2) {
		t.Fatalf("post-recovery ref estimate: status %d, identical=%v", resp.StatusCode, bytes.Equal(inline, byRef2))
	}
}

func TestTopologyRefValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 8, 1)

	// Both network and topology_ref is ambiguous.
	both, _ := json.Marshal(map[string]any{
		"network": json.RawMessage(topo), "topology_ref": "sha256:abc", "samples": 10,
	})
	if resp, body := post(t, ts, "/v1/estimate", both); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("both fields: status %d: %s", resp.StatusCode, body)
	}
	// Unknown ref is 404, not 400: the request is well-formed, the state is
	// missing.
	unknown, _ := json.Marshal(map[string]any{"topology_ref": "sha256:deadbeef", "samples": 10})
	if resp, body := post(t, ts, "/v1/estimate", unknown); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ref: status %d: %s", resp.StatusCode, body)
	}
	// Every compute endpoint accepts refs, not just estimate.
	up := uploadTopology(t, ts, topo)
	for _, path := range []string{"/v1/schedule", "/v1/latency", "/v1/reduce"} {
		req, _ := json.Marshal(map[string]any{"topology_ref": up.TopologyRef})
		if resp, body := post(t, ts, path, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s by ref: status %d: %s", path, resp.StatusCode, body)
		}
	}
}

func TestTopologySessionsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: -1})
	resp, body := post(t, ts, "/v1/topology", testTopology(t, 8, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload with sessions disabled: status %d: %s", resp.StatusCode, body)
	}
}

func TestSessionMetricsExported(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 2})
	up := uploadTopology(t, ts, testTopology(t, 8, 1))
	refReq, _ := json.Marshal(map[string]any{"topology_ref": up.TopologyRef, "samples": 10})
	if resp, body := post(t, ts, "/v1/estimate", refReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("ref estimate: status %d: %s", resp.StatusCode, body)
	}
	text := metricsText(t, s)
	for _, want := range []string{
		"rayschedd_sessions_entries 1",
		"rayschedd_session_hits_total 1",
		"rayschedd_session_evictions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
