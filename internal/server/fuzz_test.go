package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeComputeRequest drives arbitrary bytes through the decode and
// resolve path every row of the endpoint table shares (the path batch lines
// take too). For each row, whatever the input:
//
//   - decode and resolve never panic;
//   - canonicalize∘decode is idempotent: an accepted request re-encoded
//     with its canonical topology inline decodes and resolves to the same
//     canonical bytes and the same cache key;
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
			_, again, err := parseTopology(c.canon, s.cfg.MaxLinks)
			if err != nil {
				t.Fatalf("%s: canonical topology does not decode: %v\n%s", ep.path, err, c.canon)
			}
			if !bytes.Equal(again, c.canon) || TopologyRef(again) != TopologyRef(c.canon) {
				t.Fatalf("%s: canonicalization not idempotent:\n%s\nthen\n%s", ep.path, c.canon, again)
			}

			sh := req.shared()
			sh.Network, sh.TopologyRef = c.canon, ""
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
			if requestKey(ep.path, c2.params, c2.canon) != requestKey(ep.path, c.params, c.canon) {
				t.Fatalf("%s: re-encoded request keys differently:\n%s", ep.path, doc)
			}
		}
	})
}
