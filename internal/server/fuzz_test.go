package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"testing"

	"rayfade/internal/netio"
)

// FuzzDecodeComputeRequest drives arbitrary bytes through the decode and
// resolve path every row of the endpoint table shares (the path batch lines
// take too). For each row, whatever the input:
//
//   - decode and resolve never panic;
//   - the resolved topology's digest is that of its canonical bytes;
//   - canonicalize∘decode is idempotent: an accepted request re-encoded
//     with its canonical topology inline decodes and resolves to the same
//     topology digest and the same cache key;
//   - the topology_ref of the canonical bytes is stable when those bytes
//     are decoded and canonicalized again.
//
// The seed corpus lives in testdata/fuzz/FuzzDecodeComputeRequest; its
// topology_ref seeds name the 3-link topology registered below.
func FuzzDecodeComputeRequest(f *testing.F) {
	s := New(Config{Workers: 1, MaxLinks: 64, MaxSessions: 4})
	f.Cleanup(s.Close)
	topo, err := BenchTopology(3, 1)
	if err != nil {
		f.Fatal(err)
	}
	net, canon, err := parseTopology(topo, 0)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := s.sessions.Put(canon, net); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ep := range computeEndpoints {
			req := ep.newReq()
			if decodeStrict(bytes.NewReader(data), req, "request") != nil {
				continue
			}
			c, err := s.resolve(req)
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := netio.Save(&buf, c.topo.net); err != nil {
				t.Fatalf("%s: canonicalize resolved topology: %v", ep.path, err)
			}
			canon := buf.Bytes()
			if sha256.Sum256(canon) != c.topo.digest {
				t.Fatalf("%s: topology digest is not the digest of its canonical bytes:\n%s", ep.path, canon)
			}
			_, again, err := parseTopology(canon, s.cfg.MaxLinks)
			if err != nil {
				t.Fatalf("%s: canonical topology does not decode: %v\n%s", ep.path, err, canon)
			}
			if !bytes.Equal(again, canon) || TopologyRef(again) != TopologyRef(canon) {
				t.Fatalf("%s: canonicalization not idempotent:\n%s\nthen\n%s", ep.path, canon, again)
			}

			sh := req.shared()
			sh.Network, sh.TopologyRef = canon, ""
			doc, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", ep.path, err)
			}
			req2 := ep.newReq()
			if err := decodeStrict(bytes.NewReader(doc), req2, "request"); err != nil {
				t.Fatalf("%s: re-encoded request does not decode: %v\n%s", ep.path, err, doc)
			}
			c2, err := s.resolve(req2)
			if err != nil {
				t.Fatalf("%s: re-encoded request does not resolve: %v\n%s", ep.path, err, doc)
			}
			if c2.topo.digest != c.topo.digest || requestKey(ep.path, c2.params, c2.topo) != requestKey(ep.path, c.params, c.topo) {
				t.Fatalf("%s: re-encoded request keys differently:\n%s", ep.path, doc)
			}
		}
	})
}

// FuzzEstimateBatch drives arbitrary bytes through /v1/estimate/batch as an
// NDJSON body, twice on one server (so repeated inline lines take the alias
// path the second time), and each of its lines once through /v1/estimate on
// a second server. Whatever the input:
//
//   - nothing panics;
//   - a batch with no non-empty line answers 400; any other answers 200
//     with exactly one output line per non-empty input line, up to
//     MaxBatchLines, plus one error line when it has more;
//   - every success line is byte-equal to /v1/estimate's answer for the
//     same line bytes, computed separately.
//
// The seed corpus lives in testdata/fuzz/FuzzEstimateBatch; its
// topology_ref lines name the 3-link topology registered below.
func FuzzEstimateBatch(f *testing.F) {
	const maxLines = 8
	cfg := Config{Workers: 1, MaxLinks: 64, MaxSamples: 200, MaxSessions: 4, MaxBatchLines: maxLines}
	topo, err := BenchTopology(3, 1)
	if err != nil {
		f.Fatal(err)
	}
	batchSrv, singleSrv := New(cfg), New(cfg)
	f.Cleanup(batchSrv.Close)
	f.Cleanup(singleSrv.Close)
	for _, s := range []*Server{batchSrv, singleSrv} {
		if w := serveDirect(s, "/v1/topology", topo); w.Code != http.StatusOK {
			f.Fatalf("register topology: status %d: %s", w.Code, w.Body)
		}
	}
	errPrefix := []byte(`{"error":`)
	f.Fuzz(func(t *testing.T, data []byte) {
		var lines [][]byte
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if line = bytes.TrimSpace(line); len(line) > 0 {
				lines = append(lines, line)
			}
		}
		want := len(lines)
		if want > maxLines {
			want = maxLines + 1
		}
		singles := map[string][]byte{}
		for pass := 0; pass < 2; pass++ {
			w := serveDirect(batchSrv, "/v1/estimate/batch", data)
			if len(lines) == 0 {
				if w.Code != http.StatusBadRequest {
					t.Fatalf("empty batch: status %d: %s", w.Code, w.Body)
				}
				return
			}
			if w.Code != http.StatusOK {
				t.Fatalf("pass %d: status %d: %s", pass, w.Code, w.Body)
			}
			out := bytes.Split(w.Body.Bytes(), []byte{'\n'})
			if n := len(out) - 1; n != want || len(out[n]) != 0 {
				t.Fatalf("pass %d: %d output lines for %d input lines, want %d:\n%s", pass, n, len(lines), want, w.Body)
			}
			if len(lines) > maxLines && !bytes.HasPrefix(out[maxLines], errPrefix) {
				t.Fatalf("pass %d: over-limit batch does not end in an error line: %s", pass, out[maxLines])
			}
			for i, got := range out[:min(len(lines), maxLines)] {
				if bytes.HasPrefix(got, errPrefix) {
					continue
				}
				single, ok := singles[string(lines[i])]
				if !ok {
					sw := serveDirect(singleSrv, "/v1/estimate", lines[i])
					switch sw.Code {
					case http.StatusOK:
					case http.StatusGatewayTimeout:
						continue // the line's own timeout_ms fired this time
					default:
						t.Fatalf("line %d succeeds in a batch but answers %d alone: %s\n%s", i, sw.Code, sw.Body, lines[i])
					}
					single = sw.Body.Bytes()
					singles[string(lines[i])] = single
				}
				if !bytes.Equal(got, single) {
					t.Fatalf("pass %d line %d differs from /v1/estimate:\n%s\nvs\n%s", pass, i, got, single)
				}
			}
		}
	})
}
