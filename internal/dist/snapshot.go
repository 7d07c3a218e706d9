package dist

// Cluster telemetry aggregation: Snapshot reads every configured worker's
// /healthz — identity, shard load and the JSON stats object (per-endpoint
// requests, errors and latency quantiles; cache / singleflight / session
// hit rates) — into one ClusterSnapshot, the RED-style view behind
// `raysched cluster -status`. One GET per worker, decoded into the same
// server.Health type the worker marshals.
//
// FetchTrace is the companion trace return channel: it retrieves one
// worker's span collection for a trace ID (GET /v1/trace/{id}) for
// obs.WriteMergedTrace.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"rayfade/internal/obs"
	"rayfade/internal/server"
)

// WorkerSnapshot is one worker's /healthz. Err is non-nil when the worker
// could not be read; the Health fields are then zero.
type WorkerSnapshot struct {
	URL string
	Err error
	server.Health
}

// ClusterSnapshot aggregates one sweep across the worker set.
type ClusterSnapshot struct {
	Workers []WorkerSnapshot

	// Totals over the reachable workers.
	Live               int
	Unreachable        int
	Requests           uint64
	Errors             uint64
	ShardsInflight     int64
	ShardsCompleted    int64
	CacheHits          uint64
	CacheMisses        uint64
	SingleflightShared uint64
	SessionHits        uint64
	SessionMisses      uint64
	BatchLines         uint64
}

// Snapshot reads every configured worker (reachable or not — unreachable
// ones appear with Err set) and aggregates the totals. It never fails as a
// whole; the caller decides whether a partially-unreachable cluster is an
// error.
func (c *Coordinator) Snapshot(ctx context.Context) *ClusterSnapshot {
	httpClient := c.cfg.Client.HTTPClient
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	snap := &ClusterSnapshot{}
	for _, workerURL := range c.cfg.Workers {
		h, err := fetchHealth(ctx, httpClient, workerURL)
		snap.Workers = append(snap.Workers, WorkerSnapshot{URL: workerURL, Err: err, Health: h})
		if err != nil {
			snap.Unreachable++
			continue
		}
		snap.Live++
		snap.ShardsInflight += h.ShardsInflight
		snap.ShardsCompleted += h.ShardsCompleted
		snap.CacheHits += h.Stats.CacheHits
		snap.CacheMisses += h.Stats.CacheMisses
		snap.SingleflightShared += h.Stats.SingleflightShared
		snap.SessionHits += h.Stats.SessionHits
		snap.SessionMisses += h.Stats.SessionMisses
		snap.BatchLines += h.Stats.BatchLines
		for _, ep := range h.Stats.Endpoints {
			snap.Requests += ep.Requests
			snap.Errors += ep.Errors
		}
	}
	return snap
}

// ErrTraceNotFound reports that a worker holds no span collection for the
// requested trace ID (it saw no traced requests, or the collection was
// evicted).
var ErrTraceNotFound = errors.New("dist: worker holds no trace for this id")

// FetchTrace retrieves one worker's span bundle for traceID over
// GET /v1/trace/{id}.
func (c *Coordinator) FetchTrace(ctx context.Context, workerURL, traceID string) (obs.TraceBundle, error) {
	httpClient := c.cfg.Client.HTTPClient
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		workerURL+"/v1/trace/"+url.PathEscape(traceID), nil)
	if err != nil {
		return obs.TraceBundle{}, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return obs.TraceBundle{}, fmt.Errorf("dist: fetch trace from %s: %w", workerURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return obs.TraceBundle{}, ErrTraceNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return obs.TraceBundle{}, fmt.Errorf("dist: worker %s answered %d for trace %q", workerURL, resp.StatusCode, traceID)
	}
	var b obs.TraceBundle
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&b); err != nil {
		return obs.TraceBundle{}, fmt.Errorf("dist: decode trace bundle from %s: %w", workerURL, err)
	}
	return b, nil
}

// WriteText renders the snapshot as the human-readable `-status` report.
func (s *ClusterSnapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "cluster: %d/%d workers live", s.Live, len(s.Workers))
	if s.Unreachable > 0 {
		fmt.Fprintf(w, " (%d unreachable)", s.Unreachable)
	}
	fmt.Fprintln(w)
	for _, ws := range s.Workers {
		if ws.Err != nil {
			fmt.Fprintf(w, "\nworker %s  UNREACHABLE: %v\n", ws.URL, ws.Err)
			continue
		}
		fmt.Fprintf(w, "\nworker %s  instance=%s version=%s gomaxprocs=%d",
			ws.URL, ws.Instance, ws.Version, ws.GoMaxProcs)
		if ws.Status != "" && ws.Status != "ok" {
			fmt.Fprintf(w, " status=%s", ws.Status)
		}
		fmt.Fprintln(w)
		st := ws.Stats
		fmt.Fprintf(w, "  shards: %d completed, %d in flight   cache: %s   singleflight: %d shared   sessions: %s   batch lines: %d   traces held: %d\n",
			ws.ShardsCompleted, ws.ShardsInflight,
			hitRate(st.CacheHits, st.CacheMisses),
			st.SingleflightShared,
			hitRate(st.SessionHits, st.SessionMisses),
			st.BatchLines, st.TracesRetained)
		for _, ep := range st.Endpoints {
			fmt.Fprintf(w, "  %-22s %7d reqs %5d errs   p50 %s  p95 %s  p99 %s\n",
				ep.Endpoint, ep.Requests, ep.Errors,
				fmtSeconds(ep.P50), fmtSeconds(ep.P95), fmtSeconds(ep.P99))
		}
	}
	fmt.Fprintf(w, "\ntotals: %d requests (%d errors)   shards: %d completed, %d in flight   cache: %s   singleflight: %d shared   sessions: %s   batch lines: %d\n",
		s.Requests, s.Errors, s.ShardsCompleted, s.ShardsInflight,
		hitRate(s.CacheHits, s.CacheMisses), s.SingleflightShared,
		hitRate(s.SessionHits, s.SessionMisses), s.BatchLines)
}

// hitRate formats "hits/total (pct)" or "-" when there were no lookups.
func hitRate(hits, misses uint64) string {
	total := hits + misses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d (%.1f%%)", hits, total, 100*float64(hits)/float64(total))
}

// fmtSeconds renders a quantile with sub-millisecond resolution, or "-"
// when no observation exists.
func fmtSeconds(s float64) string {
	if s == 0 {
		return "-"
	}
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
