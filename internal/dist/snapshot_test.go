package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rayfade/internal/obs"
	"rayfade/internal/server"
)

// TestSnapshotAggregates: a sweep over live workers folds their /healthz
// identity and stats into per-worker and cluster totals.
func TestSnapshotAggregates(t *testing.T) {
	urls := startWorkers(t, 2)
	// Drive one counted request through each worker so the scrape has
	// something to aggregate (healthz lands under the "meta" endpoint).
	for _, u := range urls {
		resp, err := http.Get(u + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	co, err := New(Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	snap := co.Snapshot(context.Background())
	if snap.Live != 2 || snap.Unreachable != 0 || len(snap.Workers) != 2 {
		t.Fatalf("live=%d unreachable=%d workers=%d", snap.Live, snap.Unreachable, len(snap.Workers))
	}
	var total uint64
	for _, ws := range snap.Workers {
		if ws.Err != nil {
			t.Fatalf("worker %s: %v", ws.URL, ws.Err)
		}
		if ws.Instance == "" || ws.Version == "" || ws.GoMaxProcs == 0 {
			t.Fatalf("worker identity incomplete: %+v", ws)
		}
		var meta *server.EndpointSummary
		for i, ep := range ws.Stats.Endpoints {
			if ep.Endpoint == "meta" {
				meta = &ws.Stats.Endpoints[i]
			}
		}
		if meta == nil || meta.Requests == 0 {
			t.Fatalf("worker %s has no meta endpoint stats: %+v", ws.URL, ws.Stats.Endpoints)
		}
		if meta.P50 == 0 || meta.P50 > meta.P99 {
			t.Fatalf("worker %s quantiles implausible: %+v", ws.URL, meta)
		}
		for _, ep := range ws.Stats.Endpoints {
			total += ep.Requests
		}
	}
	if snap.Requests != total || snap.Requests == 0 {
		t.Fatalf("totals: snapshot says %d requests, workers sum to %d", snap.Requests, total)
	}
}

// TestSnapshotToleratesUnreachable: a dead worker appears with Err set and
// is excluded from the totals; the sweep itself never fails.
func TestSnapshotToleratesUnreachable(t *testing.T) {
	urls := startWorkers(t, 1)
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close()

	co, err := New(Config{Workers: append([]string{deadURL}, urls...)})
	if err != nil {
		t.Fatal(err)
	}
	snap := co.Snapshot(context.Background())
	if snap.Live != 1 || snap.Unreachable != 1 {
		t.Fatalf("live=%d unreachable=%d", snap.Live, snap.Unreachable)
	}
	if snap.Workers[0].Err == nil {
		t.Fatal("dead worker scraped without error")
	}
	var buf bytes.Buffer
	snap.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "cluster: 1/2 workers live (1 unreachable)") {
		t.Fatalf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "UNREACHABLE") {
		t.Fatalf("dead worker not flagged:\n%s", out)
	}
}

// TestFetchTrace: the coordinator retrieves a worker's per-trace span
// collection; an unknown trace ID maps to ErrTraceNotFound.
func TestFetchTrace(t *testing.T) {
	urls := startWorkers(t, 1)
	const traceID = "4b8bc3c7d5db6fea"
	body, err := server.BenchShardRequest(7)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, urls[0]+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderTraceContext, obs.TraceContext{TraceID: traceID, ParentID: 9}.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard status %d: %s", resp.StatusCode, out)
	}

	co, err := New(Config{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	b, err := co.FetchTrace(context.Background(), urls[0], traceID)
	if err != nil {
		t.Fatal(err)
	}
	if b.TraceID != traceID || b.Instance == "" || len(b.Spans) == 0 {
		t.Fatalf("bundle = %+v", b)
	}
	var found bool
	for _, sp := range b.Spans {
		if sp.Name == "http./v1/shard" && sp.Remote == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("shard request span with remote parent missing: %+v", b.Spans)
	}

	if _, err := co.FetchTrace(context.Background(), urls[0], "feedbeef"); !errors.Is(err, ErrTraceNotFound) {
		t.Fatalf("unknown trace: %v, want ErrTraceNotFound", err)
	}
}
