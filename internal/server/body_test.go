package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"rayfade/internal/httpbody"
)

// TestBodyLimitBoundary pins the 413 boundary of the bodies readBody reads:
// a body of exactly MaxBodyBytes is accepted and one byte more is refused,
// whether the request declares its length or arrives chunked.
func TestBodyLimitBoundary(t *testing.T) {
	topo, err := BenchTopology(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	estimate, err := BenchEstimateRequest(topo, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		body []byte
	}{{"/v1/estimate", estimate}, {"/v1/topology", topo}} {
		for _, chunked := range []bool{false, true} {
			s := New(Config{Workers: 1, MaxBodyBytes: int64(len(c.body))})
			var declared atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				declared.Store(r.ContentLength)
				s.ServeHTTP(w, r)
			}))
			// Trailing whitespace keeps the over-limit body valid JSON, so
			// only its length can refuse it.
			for _, tc := range []struct {
				body   []byte
				status int
			}{{c.body, http.StatusOK}, {append(bytes.Clone(c.body), ' '), http.StatusRequestEntityTooLarge}} {
				var rd io.Reader = bytes.NewReader(tc.body)
				if chunked {
					rd = io.MultiReader(rd) // hides the length from net/http
				}
				resp, err := http.Post(ts.URL+c.path, "application/json", rd)
				if err != nil {
					t.Fatal(err)
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				want := int64(len(tc.body))
				if chunked {
					want = -1
				}
				if got := declared.Load(); got != want {
					t.Fatalf("%s chunked=%v: server saw Content-Length %d, want %d", c.path, chunked, got, want)
				}
				if resp.StatusCode != tc.status {
					t.Errorf("%s chunked=%v, %d-byte body under a %d-byte limit: status %d, want %d: %s",
						c.path, chunked, len(tc.body), len(c.body), resp.StatusCode, tc.status, out)
				}
			}
			ts.Close()
			s.Close()
		}
	}
}

// TestDeclaredLengthNotTrusted sends a request that declares the whole
// default body limit (16 MiB) but carries 10 bytes: the server must size its
// read buffer no larger than httpbody.MaxPrealloc, and still answer the 400
// that malformed JSON gets.
func TestDeclaredLengthNotTrusted(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	var w *httptest.ResponseRecorder
	perRequest := bytesPerRun(3, func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader("not json!!"))
		r.ContentLength = s.cfg.MaxBodyBytes
		w = httptest.NewRecorder()
		s.ServeHTTP(w, r)
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
	}
	const slack = 256 << 10
	if perRequest > httpbody.MaxPrealloc+slack {
		t.Fatalf("a 10-byte body declaring %d bytes allocated %.0f B, want <= %d",
			s.cfg.MaxBodyBytes, perRequest, httpbody.MaxPrealloc+slack)
	}
}

// TestShardReplyDeclaresLength: a JSON reply past net/http's 2 kB chunking
// buffer still declares its length, so the coordinator's client reads each
// shard reply in one allocation.
func TestShardReplyDeclaresLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wire := shardTestConfig()
	wire.Points = 20
	resp, body := post(t, ts, "/v1/shard", shardReq(t, wire, 0, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if len(body) <= 2048 || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("%d-byte reply: Content-Length %d, Transfer-Encoding %v; want the length declared",
			len(body), resp.ContentLength, resp.TransferEncoding)
	}
}
