package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// inlineHitServer returns a server whose cache already holds the answer to
// a 100-link inline estimate, and that request's body.
func inlineHitServer(tb testing.TB) (*Server, []byte) {
	tb.Helper()
	s := New(Config{Workers: 1})
	tb.Cleanup(s.Close)
	topo, err := BenchTopology(100, 1)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := BenchEstimateRequest(topo, 100, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if w := serveDirect(s, "/v1/estimate", body); w.Code != http.StatusOK {
		tb.Fatalf("warm-up: status %d: %s", w.Code, w.Body)
	}
	return s, body
}

// serveDirect runs one POST through s.ServeHTTP without a network hop.
func serveDirect(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// maxInlineHitAllocs bounds the allocations of one inline cache hit through
// ServeHTTP, request and recorder included. Decoding the body, parsing its
// topology and re-canonicalizing it costs about 120; an alias hit about 41.
const maxInlineHitAllocs = 44

// maxInlineHitBodyFactor bounds the bytes one inline cache hit allocates, as
// a multiple of its body length. Reading the body in one allocation sized by
// its Content-Length keeps a 100-link hit near 1.65×; io.ReadAll's growth
// from 512 bytes took it to about 4.5×.
const maxInlineHitBodyFactor = 2

// bytesPerRun reports the average bytes f allocates per call, measured the
// way testing.AllocsPerRun counts allocations: one warm-up call, then runs
// calls at GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestInlineCacheHitAllocs gates the inline hit path: a repeated inline
// request must be answered from its raw-body alias, not by decoding and
// re-canonicalizing its topology, and its body must be read without
// repeated buffer growth.
func TestInlineCacheHitAllocs(t *testing.T) {
	s, body := inlineHitServer(t)
	var w *httptest.ResponseRecorder
	hit := func() { w = serveDirect(s, "/v1/estimate", body) }
	allocs := testing.AllocsPerRun(50, hit)
	if w.Code != http.StatusOK || w.Header().Get("X-Cache") != sourceHit {
		t.Fatalf("status %d, X-Cache %q", w.Code, w.Header().Get("X-Cache"))
	}
	if allocs > maxInlineHitAllocs {
		t.Fatalf("inline cache hit: %.0f allocs/op, want <= %d", allocs, maxInlineHitAllocs)
	}
	if perHit := bytesPerRun(50, hit); perHit > maxInlineHitBodyFactor*float64(len(body)) {
		t.Fatalf("inline cache hit: %.0f B/op for a %d-byte body, want <= %d×", perHit, len(body), maxInlineHitBodyFactor)
	}
}

func BenchmarkInlineCacheHit(b *testing.B) {
	s, body := inlineHitServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveDirect(s, "/v1/estimate", body); w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// cacheCounts reads the cache tallies /healthz reports.
func cacheCounts(t *testing.T, ts *httptest.Server) (hits, misses uint64) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Stats.CacheHits, h.Stats.CacheMisses
}

// TestInlineAliasSemantics pins what the raw-body alias may and may not
// change. Every 200 answer carries the same bytes as every other answer to
// the same estimate, however it was spelled and whichever path served it,
// and each request that reaches the cache counts exactly one hit or miss
// (requests rejected before it count none).
func TestInlineAliasSemantics(t *testing.T) {
	topo, err := BenchTopology(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := BenchTopology(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := TopologyRef(topo)
	inline, err := BenchEstimateRequest(topo, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, inline, "", "  "); err != nil {
		t.Fatal(err)
	}
	byRef, err := BenchEstimateRefRequest(ref, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	byRef2, err := BenchEstimateRefRequest(ref, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := BenchEstimateRequest(topo, -3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// bodies by name; answers of one class must be byte-identical.
	bodies := map[string]struct {
		doc   []byte
		class string
	}{
		"inline":    {inline, "seed1"},
		"spaced":    {spaced.Bytes(), "seed1"},
		"reordered": {[]byte(`{"seed":1,"samples":100,"network":` + string(topo) + `}`), "seed1"},
		"timeout":   {reqBody(t, topo, map[string]any{"samples": 100, "seed": 1, "timeout_ms": 60000}), "seed1"},
		"ref":       {byRef, "seed1"},
		"ref2":      {byRef2, "seed2"},
		"bad":       {bad, ""},
		"topo":      {topo, ""},
		"other":     {other, ""},
	}
	answers := map[string][]byte{}

	type step struct {
		path   string // "" is /v1/estimate
		body   string
		status int
		cache  string // X-Cache; "" for requests that never reach the cache
	}
	upload := func(body string) step { return step{"/v1/topology", body, http.StatusOK, ""} }
	est := func(body string, status int, cache string) step { return step{"", body, status, cache} }
	rows := []struct {
		name    string
		cfg     Config
		steps   []step
		aliases int // resident aliases afterwards
	}{
		{"inline repeat hits with identical bytes", Config{}, []step{
			est("inline", 200, "miss"), est("inline", 200, "hit"),
		}, 1},
		{"whitespace, field-order and timeout variants hit canonically", Config{}, []step{
			est("inline", 200, "miss"), est("spaced", 200, "hit"), est("reordered", 200, "hit"),
			est("timeout", 200, "hit"), est("spaced", 200, "hit"),
		}, 4},
		{"evicted session ref answers 404 while its inline twin is aliased", Config{MaxSessions: 1}, []step{
			upload("topo"), est("ref", 200, "miss"), est("inline", 200, "hit"),
			upload("other"), est("ref", 404, ""), est("inline", 200, "hit"), est("ref", 404, ""),
		}, 1},
		{"4xx answers twice and is never aliased", Config{}, []step{
			est("bad", 400, ""), est("bad", 400, ""),
		}, 0},
		{"alias outliving its body recomputes the same bytes", Config{CacheSize: 1}, []step{
			upload("topo"), est("inline", 200, "miss"), est("ref2", 200, "miss"),
			est("inline", 200, "miss"), est("inline", 200, "hit"),
		}, 1},
		{"disabled cache misses every time", Config{CacheSize: -1}, []step{
			est("inline", 200, "miss"), est("inline", 200, "miss"), est("spaced", 200, "miss"),
		}, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, ts := newTestServer(t, row.cfg)
			for i, st := range row.steps {
				path := st.path
				if path == "" {
					path = "/v1/estimate"
				}
				b := bodies[st.body]
				h0, m0 := cacheCounts(t, ts)
				resp, out := post(t, ts, path, b.doc)
				h1, m1 := cacheCounts(t, ts)
				if resp.StatusCode != st.status {
					t.Fatalf("step %d (%s): status %d, want %d: %s", i, st.body, resp.StatusCode, st.status, out)
				}
				if path != "/v1/estimate" {
					continue
				}
				if got := resp.Header.Get("X-Cache"); got != st.cache {
					t.Fatalf("step %d (%s): X-Cache %q, want %q", i, st.body, got, st.cache)
				}
				var wantH, wantM uint64
				switch st.cache {
				case sourceHit:
					wantH = 1
				case sourceMiss:
					wantM = 1
				}
				if h1-h0 != wantH || m1-m0 != wantM {
					t.Fatalf("step %d (%s): counted %d hits and %d misses, want %d and %d",
						i, st.body, h1-h0, m1-m0, wantH, wantM)
				}
				if st.status != http.StatusOK {
					continue
				}
				if prev, ok := answers[b.class]; !ok {
					answers[b.class] = out
				} else if !bytes.Equal(prev, out) {
					t.Fatalf("step %d (%s): bytes differ from an earlier %s answer:\n%s\nvs\n%s",
						i, st.body, b.class, out, prev)
				}
			}
			if n := s.aliases.len(); n != row.aliases {
				t.Fatalf("%d aliases resident, want %d", n, row.aliases)
			}
		})
	}
}
