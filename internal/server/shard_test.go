package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"rayfade/internal/sim"
)

// shardTestConfig is a Figure-1 run small enough for endpoint tests.
func shardTestConfig() Figure1ShardConfig {
	return Figure1ShardConfig{
		Networks: 4, Links: 12, TransmitSeeds: 2, FadingSeeds: 2,
		Points: 3, Seed: 23,
	}
}

func shardReq(t *testing.T, wire Figure1ShardConfig, lo, hi int) []byte {
	t.Helper()
	b, err := json.Marshal(ShardRequest{
		Experiment: sim.ExperimentFigure1, Lo: lo, Hi: hi, Figure1: &wire,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardEndpoint: the endpoint's shard document must decode and be
// bit-identical to computing the same shard in-process — a worker adds
// transport, never perturbation.
func TestShardEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wire := shardTestConfig()
	resp, body := post(t, ts, "/v1/shard", shardReq(t, wire, 1, 3))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Shard-Range"); got != "1-3" {
		t.Fatalf("X-Shard-Range = %q, want \"1-3\"", got)
	}
	sh, err := sim.DecodeShard(body)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Lo != 1 || sh.Hi != 3 || sh.Reps != 4 || sh.Experiment != sim.ExperimentFigure1 {
		t.Fatalf("shard header: %+v", sh)
	}
	local, err := sim.RunFigure1ShardCtx(context.Background(), wire.SimConfig(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	localDoc, err := local.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, localDoc) {
		t.Fatal("endpoint shard document differs from in-process computation")
	}

	// Identical request again: served from cache, byte-identical, range
	// header still present.
	resp2, body2 := post(t, ts, "/v1/shard", shardReq(t, wire, 1, 3))
	if resp2.StatusCode != 200 || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d, X-Cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if resp2.Header.Get("X-Shard-Range") != "1-3" {
		t.Fatalf("repeat X-Shard-Range = %q", resp2.Header.Get("X-Shard-Range"))
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cached shard document differs")
	}
}

func TestShardEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxLinks: 100})
	wire := shardTestConfig()
	cases := []struct {
		name string
		body []byte
		code int
	}{
		{"unknown experiment", func() []byte {
			b, _ := json.Marshal(ShardRequest{Experiment: "figure9", Lo: 0, Hi: 1, Figure1: &wire})
			return b
		}(), 400},
		{"missing config", func() []byte {
			b, _ := json.Marshal(ShardRequest{Experiment: sim.ExperimentFigure1, Lo: 0, Hi: 1})
			return b
		}(), 400},
		{"inverted range", shardReq(t, wire, 3, 1), 400},
		{"empty range", shardReq(t, wire, 2, 2), 400},
		{"range past networks", shardReq(t, wire, 0, 5), 400},
		{"negative lo", shardReq(t, wire, -1, 2), 400},
		{"zero networks", func() []byte {
			w := wire
			w.Networks = 0
			return shardReq(t, w, 0, 1)
		}(), 400},
		{"one point", func() []byte {
			w := wire
			w.Points = 1
			return shardReq(t, w, 0, 1)
		}(), 400},
		{"oversized topology", func() []byte {
			w := wire
			w.Links = 101
			return shardReq(t, w, 0, 1)
		}(), 413},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, "/v1/shard", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.code, body)
		}
	}
}

// TestHealthzWorkerIdentity: /healthz must expose the identity fields a
// coordinator discovers workers by, and the shard counters must move when
// shards complete.
func TestHealthzWorkerIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func() Health {
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
		return h
	}
	h := get()
	if h.Status != "ok" || h.Version == "" || h.Instance == "" || h.GoMaxProcs < 1 {
		t.Fatalf("healthz identity: %+v", h)
	}
	if h.Instance != s.instance {
		t.Fatalf("healthz instance %q, server has %q", h.Instance, s.instance)
	}
	if h.ShardsInflight != 0 || h.ShardsCompleted != 0 {
		t.Fatalf("fresh daemon shard counters: %+v", h)
	}

	if resp, body := post(t, ts, "/v1/shard", shardReq(t, shardTestConfig(), 0, 2)); resp.StatusCode != 200 {
		t.Fatalf("shard: status %d: %s", resp.StatusCode, body)
	}
	h = get()
	if h.ShardsCompleted != 1 {
		t.Fatalf("shards_completed = %d after one shard", h.ShardsCompleted)
	}
	if h.ShardsInflight != 0 {
		t.Fatalf("shards_inflight = %d at rest", h.ShardsInflight)
	}
}

// TestShardMetrics: the Prometheus page must carry the shard series.
func TestShardMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := post(t, ts, "/v1/shard", shardReq(t, shardTestConfig(), 0, 1)); resp.StatusCode != 200 {
		t.Fatalf("shard: status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		"rayschedd_shards_completed_total 1",
		"rayschedd_shards_inflight 0",
		`rayschedd_requests_total{endpoint="/v1/shard",code="200"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}
