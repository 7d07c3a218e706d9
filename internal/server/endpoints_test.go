package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"testing"
)

// pinnedBodies are the SHA-256 digests of each compute endpoint's response
// to its pinnedKnobs on BenchTopology(20, 1). They were recorded from the
// per-endpoint handlers the endpoint table replaced; any drift means the
// table changed a default, a validation, a cache key or a compute call.
var pinnedBodies = map[string]string{
	"/v1/schedule": "0cea4476928942793cd3537550d28fd9531a55271e9d8bc43975c9fa0b62e582",
	"/v1/latency":  "dfde75100280e0fe86d55ade21a92df0e9cf0609fb40525f1d1a53608343ea30",
	"/v1/reduce":   "67dd6103fe3fbf398e9a15b57522ffac5c93f05836176df1c6a7ce68c6fda8b4",
	"/v1/estimate": "b58b2877bec0638bf06dfcef3cac53ec13ab93358e4a318f4f308b637e89c91f",
}

var pinnedKnobs = map[string]map[string]any{
	"/v1/schedule": {"algorithm": "weighted"},
	"/v1/latency":  {"model": "rayleigh", "seed": 3},
	"/v1/reduce":   {"samples": 40, "seed": 2},
	"/v1/estimate": {"samples": 200, "seed": 5},
}

func bodySHA(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestEndpointBodiesPinned runs every compute endpoint with its topology
// inline and by topology_ref. Both forms must answer the pinned bytes, and
// the repeat of each request must replay them from the cache.
func TestEndpointBodiesPinned(t *testing.T) {
	topo, err := BenchTopology(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range pinnedBodies {
		var bodies [][]byte
		for _, form := range []string{"network", "topology_ref"} {
			_, ts := newTestServer(t, Config{})
			doc := map[string]any{"network": json.RawMessage(topo)}
			if form == "topology_ref" {
				doc = map[string]any{"topology_ref": uploadTopology(t, ts, topo).TopologyRef}
			}
			for k, v := range pinnedKnobs[path] {
				doc[k] = v
			}
			req, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			r1, b1 := post(t, ts, path, req)
			r2, b2 := post(t, ts, path, req)
			if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d then %d: %s", path, form, r1.StatusCode, r2.StatusCode, b1)
			}
			if got := r2.Header.Get("X-Cache"); got != "hit" || string(b1) != string(b2) {
				t.Fatalf("%s %s: repeat answered X-Cache %q, identical=%v", path, form, got, string(b1) == string(b2))
			}
			if got := bodySHA(b1); got != want {
				t.Errorf("%s %s: body sha256 %s, want %s\n%s", path, form, got, want, b1)
			}
			bodies = append(bodies, b1)
		}
		if string(bodies[0]) != string(bodies[1]) {
			t.Errorf("%s: inline and topology_ref bodies differ:\n%s\n%s", path, bodies[0], bodies[1])
		}
	}

	// The batch row: an estimate line answers the /v1/estimate bytes.
	_, ts := newTestServer(t, Config{})
	resp, lines := postBatch(t, ts, ndjson(reqBody(t, topo, pinnedKnobs["/v1/estimate"])))
	if resp.StatusCode != http.StatusOK || len(lines) != 1 {
		t.Fatalf("batch: status %d, %d lines", resp.StatusCode, len(lines))
	}
	if got := bodySHA(lines[0]); got != pinnedBodies["/v1/estimate"] {
		t.Errorf("batch line sha256 %s, want the /v1/estimate body's %s\n%s", got, pinnedBodies["/v1/estimate"], lines[0])
	}
}
