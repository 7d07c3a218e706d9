package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestBenchTopologyDeterministic: same inputs, byte-identical payload —
// the property the cache-hit bench scenario depends on.
func TestBenchTopologyDeterministic(t *testing.T) {
	a, err := BenchTopology(20, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BenchTopology(20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("BenchTopology is not deterministic")
	}
	c, err := BenchTopology(20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical topologies")
	}
}

// TestBenchRequestsAreServable posts the bench-built bodies at a live
// server and requires 200s — the contract that keeps throughput scenarios
// measuring compute, not error paths.
func TestBenchRequestsAreServable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo, err := BenchTopology(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := BenchEstimateRequest(topo, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := post(t, ts, "/v1/estimate", est); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/estimate: %d: %s", resp.StatusCode, body)
	}
	sched := []byte(`{"network":` + string(topo) + `}`)
	if resp, body := post(t, ts, "/v1/schedule", sched); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/schedule: %d: %s", resp.StatusCode, body)
	}
}
