package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
)

// refBody builds a request document naming a session topology by ref, plus
// extra top-level fields.
func refBody(t *testing.T, ref string, extra map[string]any) []byte {
	t.Helper()
	doc := map[string]any{"topology_ref": ref}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// healthStats reads the tallies /healthz reports.
func healthStats(t *testing.T, ts *httptest.Server) Stats {
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
	return h.Stats
}

// memoWant is the compiled-topology tallies a test expects.
type memoWant struct {
	hits, misses, builds, skips uint64
	bytes                       int64
}

// checkMemo compares the /healthz compiled-topology tallies with want, and
// the /metrics gauges with /healthz.
func checkMemo(t *testing.T, s *Server, ts *httptest.Server, what string, want memoWant) {
	t.Helper()
	st := healthStats(t, ts)
	got := memoWant{st.CompiledHits, st.CompiledMisses, st.CompiledBuilds, st.CompiledSkips, st.CompiledBytes}
	if got != want {
		t.Fatalf("%s: compiled tallies %+v, want %+v", what, got, want)
	}
	text := metricsText(t, s)
	for _, line := range []string{
		fmt.Sprintf("rayschedd_compiled_hits_total %d", want.hits),
		fmt.Sprintf("rayschedd_compiled_misses_total %d", want.misses),
		fmt.Sprintf("rayschedd_compiled_builds_total %d", want.builds),
		fmt.Sprintf("rayschedd_compiled_skips_total %d", want.skips),
		fmt.Sprintf("rayschedd_compiled_bytes %d", want.bytes),
	} {
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("%s: /metrics lacks %q", what, line)
		}
	}
}

// TestCompiledConcurrentFirstUse fires concurrent first by-ref computes at
// one session, each with its own seed so none shares another's flight or
// cache entry: they must build one compiled topology between them, and
// every other compute must count as a hit on it.
func TestCompiledConcurrentFirstUse(t *testing.T) {
	const requests = 16
	s, ts := newTestServer(t, Config{Workers: 4, CacheSize: -1})
	up := uploadTopology(t, ts, testTopology(t, 30, 1))
	bodies := make([][]byte, requests)
	for k := range bodies {
		bodies[k] = refBody(t, up.TopologyRef, map[string]any{"samples": 50, "seed": k + 1})
	}
	var wg sync.WaitGroup
	status := make([]int, requests)
	for k := range status {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(bodies[k]))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			status[k] = resp.StatusCode
		}()
	}
	wg.Wait()
	for k, code := range status {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", k, code)
		}
	}
	checkMemo(t, s, ts, "after the burst", memoWant{hits: requests - 1, misses: 1, builds: 1, bytes: compiledBytes(30)})
}

// TestInlineMissLeavesMemoAlone pins that inline requests only consult the
// memo: an inline compute on a topology nobody registered, or registered but
// never computed on by ref, compiles its own matrix, builds nothing into the
// memo and registers no ref; once a by-ref compute has built the memo, an
// inline compute of the same document uses it.
func TestInlineMissLeavesMemoAlone(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	topo := testTopology(t, 20, 1)
	estimate := func(body []byte) {
		t.Helper()
		if resp, out := post(t, ts, "/v1/estimate", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate: status %d: %s", resp.StatusCode, out)
		}
	}
	estimate(reqBody(t, topo, map[string]any{"samples": 20, "seed": 1}))
	if n := s.sessions.len(); n != 0 {
		t.Fatalf("an inline compute registered %d sessions", n)
	}
	checkMemo(t, s, ts, "inline, unregistered", memoWant{misses: 1})

	up := uploadTopology(t, ts, topo)
	estimate(reqBody(t, topo, map[string]any{"samples": 20, "seed": 2}))
	checkMemo(t, s, ts, "inline, registered but not compiled", memoWant{misses: 2})

	estimate(refBody(t, up.TopologyRef, map[string]any{"samples": 20, "seed": 3}))
	checkMemo(t, s, ts, "by ref", memoWant{misses: 3, builds: 1, bytes: compiledBytes(20)})

	estimate(reqBody(t, topo, map[string]any{"samples": 20, "seed": 4}))
	checkMemo(t, s, ts, "inline, compiled", memoWant{hits: 1, misses: 3, builds: 1, bytes: compiledBytes(20)})
	if st := healthStats(t, ts); st.SessionHits != 1 || st.SessionMisses != 0 {
		t.Fatalf("inline computes touched the session tallies: %d hits, %d misses", st.SessionHits, st.SessionMisses)
	}
}

// TestEvictedSessionRecompiles evicts a compiled session: its ref answers
// 404 and its bytes leave the memo; re-uploading gives the same ref, and
// the next compute rebuilds the compiled topology and answers the same
// bytes as before the eviction.
func TestEvictedSessionRecompiles(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1, MaxSessions: 1})
	topo := testTopology(t, 16, 1)
	up := uploadTopology(t, ts, topo)
	req := refBody(t, up.TopologyRef, map[string]any{"samples": 50, "seed": 7})
	resp, before := post(t, ts, "/v1/estimate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("by ref: status %d: %s", resp.StatusCode, before)
	}
	uploadTopology(t, ts, testTopology(t, 10, 2))
	checkMemo(t, s, ts, "after the eviction", memoWant{misses: 1, builds: 1})
	if resp, body := post(t, ts, "/v1/estimate", req); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted ref: status %d: %s", resp.StatusCode, body)
	}
	if re := uploadTopology(t, ts, topo); !re.Created || re.TopologyRef != up.TopologyRef {
		t.Fatalf("re-upload after eviction: %+v", re)
	}
	resp, after := post(t, ts, "/v1/estimate", req)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(before, after) {
		t.Fatalf("after re-upload: status %d, same bytes %v:\n%s\n%s", resp.StatusCode, bytes.Equal(before, after), before, after)
	}
	checkMemo(t, s, ts, "after the rebuild", memoWant{misses: 2, builds: 2, bytes: compiledBytes(16)})
}

// computeVariants are request knobs covering every compute path of the
// four endpoints: each schedule algorithm, each latency scheduler and
// model, the reduction and the estimate.
var computeVariants = []struct {
	path  string
	knobs map[string]any
}{
	{"/v1/schedule", map[string]any{"algorithm": "greedy"}},
	{"/v1/schedule", map[string]any{"algorithm": "weighted", "beta": 1.5}},
	{"/v1/schedule", map[string]any{"algorithm": "powercontrol"}},
	{"/v1/latency", map[string]any{"scheduler": "repeated", "model": "nonfading"}},
	{"/v1/latency", map[string]any{"scheduler": "repeated", "model": "rayleigh", "seed": 3}},
	{"/v1/latency", map[string]any{"scheduler": "aloha", "model": "nonfading", "seed": 4}},
	{"/v1/latency", map[string]any{"scheduler": "aloha", "model": "rayleigh", "seed": 5}},
	{"/v1/reduce", map[string]any{"samples": 40, "seed": 2}},
	{"/v1/estimate", map[string]any{"samples": 200, "seed": 5}},
}

// TestByRefMatchesInline runs every compute path three ways with the cache
// off, so each one computes: inline on a daemon without sessions (compiled
// per request), by ref (building, then using, the memo), and inline on the
// daemon whose memo holds the topology (consulting it). All three must
// answer the same bytes.
func TestByRefMatchesInline(t *testing.T) {
	topo := testTopology(t, 20, 1)
	_, plain := newTestServer(t, Config{CacheSize: -1, MaxSessions: -1})
	s, ts := newTestServer(t, Config{CacheSize: -1})
	ref := uploadTopology(t, ts, topo).TopologyRef
	for _, v := range computeVariants {
		var bodies [][]byte
		for _, form := range []struct {
			ts   *httptest.Server
			body []byte
		}{
			{plain, reqBody(t, topo, v.knobs)},
			{ts, refBody(t, ref, v.knobs)},
			{ts, reqBody(t, topo, v.knobs)},
		} {
			resp, body := post(t, form.ts, v.path, form.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %v: status %d: %s", v.path, v.knobs, resp.StatusCode, body)
			}
			bodies = append(bodies, body)
		}
		if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Equal(bodies[0], bodies[2]) {
			t.Errorf("%s %v: inline, by-ref and memoized inline answers differ:\n%s\n%s\n%s", v.path, v.knobs, bodies[0], bodies[1], bodies[2])
		}
	}
	n := uint64(len(computeVariants))
	checkMemo(t, s, ts, "after every variant", memoWant{hits: 2*n - 1, misses: 1, builds: 1, bytes: compiledBytes(20)})
}

// TestComputeOnlyReadsCompiled runs every compute path by ref on one
// memoized compiled topology and requires its gain matrix to come out bit
// for bit as it went in: the memo is shared by concurrent requests, so no
// compute path may write it.
func TestComputeOnlyReadsCompiled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	ref := uploadTopology(t, ts, testTopology(t, 20, 1)).TopologyRef
	var want []uint64
	for _, v := range computeVariants {
		if resp, body := post(t, ts, v.path, refBody(t, ref, v.knobs)); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %v: status %d: %s", v.path, v.knobs, resp.StatusCode, body)
		}
		if want == nil {
			want = matrixBits(t, s, ref) // the first compute built the memo
		} else if !slices.Equal(matrixBits(t, s, ref), want) {
			t.Fatalf("%s %v wrote the shared gain matrix", v.path, v.knobs)
		}
	}
}

// matrixBits returns every value of the memoized matrix of session ref —
// gains, diagonal, weights and noise — as bit patterns.
func matrixBits(t *testing.T, s *Server, ref string) []uint64 {
	t.Helper()
	e, ok := s.sessions.peek(ref)
	if !ok || e.memo.c.Load() == nil {
		t.Fatalf("session %s holds no compiled topology", ref)
	}
	m := e.memo.c.Load().m
	bits := []uint64{math.Float64bits(m.Noise)}
	for i := 0; i < m.N; i++ {
		bits = append(bits, math.Float64bits(m.Own(i)), math.Float64bits(m.Weights[i]))
		for _, g := range m.Incoming(i) {
			bits = append(bits, math.Float64bits(g))
		}
	}
	return bits
}

// TestOverBudgetTopologyUnmemoized gives every session a byte cap below a
// 20-link compiled topology: such a topology is computed per request,
// counted as a skip, never memoized, and answers the bytes a daemon that
// memoizes it answers.
func TestOverBudgetTopologyUnmemoized(t *testing.T) {
	const links = 20
	maxSessions := int(compiledBudget/compiledBytes(links)) + 1
	topo := testTopology(t, links, 1)
	_, memoTS := newTestServer(t, Config{CacheSize: -1})
	s, ts := newTestServer(t, Config{CacheSize: -1, MaxSessions: maxSessions})
	if s.memoCap >= compiledBytes(links) {
		t.Fatalf("per-session cap %d admits a %d-link topology", s.memoCap, links)
	}
	refs := []string{uploadTopology(t, memoTS, topo).TopologyRef, uploadTopology(t, ts, topo).TopologyRef}
	for _, v := range computeVariants {
		resp, want := post(t, memoTS, v.path, refBody(t, refs[0], v.knobs))
		resp2, got := post(t, ts, v.path, refBody(t, refs[1], v.knobs))
		if resp.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK || !bytes.Equal(want, got) {
			t.Errorf("%s %v: memoized status %d, over budget status %d, same bytes %v", v.path, v.knobs,
				resp.StatusCode, resp2.StatusCode, bytes.Equal(want, got))
		}
	}
	checkMemo(t, s, ts, "over budget", memoWant{skips: uint64(len(computeVariants))})
}
