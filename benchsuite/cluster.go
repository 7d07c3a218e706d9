package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rayfade/benchsuite/load"
	"rayfade/internal/client"
	"rayfade/internal/dist"
	"rayfade/internal/obs"
	"rayfade/internal/server"
	"rayfade/internal/sim"
)

// clusterWorkers is the number of in-process rayschedd workers, each with a
// one-worker pool, that the coordinator shards the fig1 run across.
const clusterWorkers = 2

// clusterLease is the coordinator's default per-dispatch lease, which also
// bounds each shard request's compute deadline.
const clusterLease = 2 * time.Minute

// cluster is one coordinator and its freshly started workers. Workers cache
// shard documents, so every run gets new ones: a repeated run would
// otherwise measure cache hits.
type cluster struct {
	workers []*httptest.Server
	servers []*server.Server
	hc      *http.Client
	co      *dist.Coordinator
	trips   *tripLog // nil unless traced
}

// startCluster starts the workers, builds a coordinator with the CLI's
// defaults (adaptive hedging, no journal) and discovers the workers.
func startCluster(ctx context.Context, fig1Seed uint64, traced bool) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for i := 0; i < clusterWorkers; i++ {
		srv := server.New(server.Config{Workers: 1})
		ts := httptest.NewServer(srv)
		c.servers = append(c.servers, srv)
		c.workers = append(c.workers, ts)
		urls = append(urls, ts.URL)
	}
	var rt http.RoundTripper = &http.Transport{}
	if traced {
		c.trips = &tripLog{base: rt}
		rt = c.trips
	}
	c.hc = &http.Client{Transport: rt}
	co, err := dist.New(dist.Config{
		Workers: urls,
		Client:  client.Config{JitterSeed: fig1Seed, HTTPClient: c.hc},
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.co = co
	live, err := co.Discover(ctx)
	if err != nil {
		c.close()
		return nil, err
	}
	if len(live) != clusterWorkers {
		c.close()
		return nil, fmt.Errorf("cluster: %d of %d workers live", len(live), clusterWorkers)
	}
	return c, nil
}

func (c *cluster) close() {
	c.hc.CloseIdleConnections()
	for i := range c.workers {
		c.workers[i].Close()
		c.servers[i].Close()
	}
}

// clusterRun is what one distributed run produced and how long its parts
// took, in milliseconds.
type clusterRun struct {
	csv                            []byte
	stats                          dist.Stats
	run, write, replay, render, ms float64
}

// run shards the fig1 experiment across the workers, writes the merged
// checkpoint, replays it through the single-node pipeline and renders the
// CSV, as raysched cluster does.
func (c *cluster) run(ctx context.Context, seed uint64, dir string) (clusterRun, error) {
	var out clusterRun
	wire := server.Figure1ShardConfig{
		Networks: fig1Networks, Links: links, TransmitSeeds: 25, FadingSeeds: 10,
		Points: 20, Seed: fig1Seed(seed), Topology: "uniform",
	}
	cfg := wire.SimConfig()
	sha, err := sim.Figure1ConfigSHA(cfg)
	if err != nil {
		return out, err
	}
	job := dist.Job{
		Experiment: sim.ExperimentFigure1,
		ConfigSHA:  sha,
		Reps:       cfg.Networks,
		NewRequest: func(lo, hi int) ([]byte, error) {
			return json.Marshal(server.ShardRequest{
				Experiment: sim.ExperimentFigure1, Lo: lo, Hi: hi,
				Figure1: &wire, TimeoutMS: clusterLease.Milliseconds(),
			})
		},
	}
	start := time.Now()
	results, st, err := c.co.Run(ctx, job)
	out.stats = st
	out.run = since(start)
	if err != nil {
		return out, fmt.Errorf("cluster run: %w", err)
	}
	t := time.Now()
	ck := filepath.Join(dir, "merged.ckpt")
	if err := sim.WriteMergedCheckpoint(ck, job.Experiment, sha, job.Reps, results); err != nil {
		return out, err
	}
	out.write = since(t)
	t = time.Now()
	cfg.Checkpoint = ck
	res, err := sim.RunFigure1Ctx(ctx, cfg)
	if err != nil {
		return out, err
	}
	out.replay = since(t)
	t = time.Now()
	var buf bytes.Buffer
	if err := sim.WriteSeriesCSV(&buf, "prob", res.Probs, res.CurveNames(), res.Curves); err != nil {
		return out, err
	}
	out.render = since(t)
	out.csv = buf.Bytes()
	out.ms = since(start)
	return out, os.Remove(ck)
}

// clusterOp sets up a fresh cluster, runs it once, checks its CSV against
// the single-node reference and tears it down.
func clusterOp(ctx context.Context, seed uint64, dir string, want [sha256.Size]byte, traced bool) (setupS float64, run clusterRun, c *cluster, err error) {
	t := time.Now()
	c, err = startCluster(ctx, fig1Seed(seed), traced)
	if err != nil {
		return 0, run, nil, err
	}
	setupS = time.Since(t).Seconds()
	run, err = c.run(ctx, seed, dir)
	if err == nil && sha256.Sum256(run.csv) != want {
		err = fmt.Errorf("cluster: the distributed CSV differs from the single-node run")
	}
	return setupS, run, c, err
}

// clusterReference is the single-node CSV hash every cluster run must match.
func clusterReference(ctx context.Context, seed uint64) ([sha256.Size]byte, error) {
	_, csv, err := runFigure1CSV(ctx, fig1Config(seed, fig1Networks, 1))
	return sha256.Sum256(csv), err
}

// countDispatches adds one run's dispatch attempts and failures: a shard
// lands once, and every reassignment is a failed attempt.
func countDispatches(rep *report, st dist.Stats) {
	rep.attempted += st.Completed + st.Reassigned
	rep.failed += st.Reassigned
}

func runCluster(ctx context.Context, cfg runConfig, rep *report) error {
	want, err := clusterReference(ctx, cfg.seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "benchsuite-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var setups []float64
	times, factors, err := batchRuns(ctx, rep, cfg.budget(1), func() (float64, error) {
		setupS, run, c, err := clusterOp(ctx, cfg.seed, dir, want, false)
		if c != nil {
			c.close()
		}
		if err != nil {
			return 0, err
		}
		setups = append(setups, setupS)
		countDispatches(rep, run.stats)
		return run.ms, nil
	})
	if err != nil {
		return err
	}
	for i := range setups {
		setups[i] /= factors[i]
	}
	rep.set("setup_s", load.Median(setups))
	recordBatch(rep, times)
	// recordBatch counted runs; the cluster counts dispatch attempts.
	rep.attempted -= len(times)
	return nil
}

// trip is one shard exchange seen by the coordinator's transport.
type trip struct {
	host       string
	start, end time.Time
	body       []byte
}

// tripLog is an http.RoundTripper that times each exchange to the end of
// the response body and keeps the bodies of completed shard exchanges.
type tripLog struct {
	base  http.RoundTripper
	mu    sync.Mutex
	trips []trip
}

func (l *tripLog) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := l.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if resp.StatusCode == http.StatusOK && req.URL.Path == "/v1/shard" {
		l.mu.Lock()
		l.trips = append(l.trips, trip{host: req.URL.Host, start: start, end: time.Now(), body: body})
		l.mu.Unlock()
	}
	return resp, nil
}

// shardTrips returns the completed /v1/shard exchanges.
func (l *tripLog) shardTrips() []trip {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]trip(nil), l.trips...)
}

// traceCluster runs the cluster untraced and then traced — the obs tracer
// installed and the coordinator's transport timing every shard exchange —
// and attributes each traced run: worker compute (the workers' /metrics
// request time for /v1/shard), HTTP transfer, shard decode (replayed with
// sim.DecodeShard), coordinator time, and the merge, checkpoint write,
// replay and render that follow.
func traceCluster(ctx context.Context, cfg runConfig, rep *report) error {
	const repeats = 3
	topos, err := newTopologies(cfg.seed, "cluster/probe", 8)
	if err != nil {
		return err
	}
	if _, err := probeUnitCosts(rep, topos, cfg.seed); err != nil {
		return err
	}
	want, err := clusterReference(ctx, cfg.seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "benchsuite-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	plain, _, err := batchRuns(ctx, rep, 0, func() (float64, error) {
		_, run, c, err := clusterOp(ctx, cfg.seed, dir, want, false)
		if c != nil {
			c.close()
		}
		countDispatches(rep, run.stats)
		return run.ms, err
	})
	if err != nil {
		return err
	}

	tr := obs.NewTracer(1 << 14)
	obs.SetDefault(tr)
	defer obs.SetDefault(nil)
	a := attribution{workload: "cluster"}
	var traced, shards, attempts, hedged, reassigned, kb, util []float64
	for i := 0; i < repeats; i++ {
		_, run, c, err := clusterOp(ctx, cfg.seed, dir, want, true)
		if err != nil {
			if c != nil {
				c.close()
			}
			return err
		}
		busy, err := c.shardBusy(ctx)
		trips := c.trips.shardTrips()
		c.close()
		if err != nil {
			return err
		}
		countDispatches(rep, run.stats)
		traced = append(traced, run.ms/rep.pause())
		st := run.stats
		shards = append(shards, float64(st.Shards))
		attempts = append(attempts, float64(st.Completed+st.Reassigned+st.Hedged)/float64(st.Shards))
		hedged = append(hedged, float64(st.Hedged))
		reassigned = append(reassigned, float64(st.Reassigned))
		layers, bytesIn, err := clusterLayers(run, trips, busy)
		if err != nil {
			return err
		}
		kb = append(kb, bytesIn/1024)
		workerBusy := 0.0
		for _, ms := range busy {
			workerBusy += ms
		}
		util = append(util, workerBusy/(clusterWorkers*run.run))
		a.add(layers, run.ms)
	}
	rep.set("trace_overhead_pct", 100*(load.Median(traced)-load.Median(plain))/load.Median(plain))
	rep.set("dist.shards", load.Median(shards))
	rep.set("dist.attempts_per_shard", load.Median(attempts))
	rep.set("dist.hedged", load.Median(hedged))
	rep.set("dist.reassigned", load.Median(reassigned))
	rep.set("dist.transfer_kb", load.Median(kb))
	rep.set("dist.worker_util", load.Median(util))
	if cfg.traceDir != "" {
		if err := tr.WriteTraceFile(traceFile(cfg, "cluster")); err != nil {
			return err
		}
	}

	// The shard compute is the fig1 replication body; its draws per run are
	// those of the same replications.
	total := newCosts()
	c1 := fig1Config(cfg.seed, fig1Networks, 1)
	for r := 0; r < c1.Networks; r++ {
		_, c, err := replayFigure1(c1, r)
		if err != nil {
			return err
		}
		total.add(c)
	}
	rep.set("rng.exp_draws", total.draws)
	rep.set("fading.calls", total.calls)
	a.record(rep, os.Stderr)
	return nil
}

// shardBusy reads each worker's total /v1/shard handler time, in
// milliseconds, from its /metrics page.
func (c *cluster) shardBusy(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	for _, w := range c.workers {
		m, err := scrapeMetrics(ctx, w.Client(), w.URL)
		if err != nil {
			return nil, err
		}
		out[w.Listener.Addr().String()] = 1e3 * m[`rayschedd_request_duration_seconds_sum{endpoint="/v1/shard"}`]
	}
	return out, nil
}

// clusterLayers attributes one traced run along its critical worker — the
// one whose shard exchanges took longest in total: its handler time is
// shard compute, the rest of its exchanges is HTTP, decoding its documents
// (replayed) is decode, and the coordinator's remaining time in Run is
// dist. Merging the shards (replayed), the checkpoint write, the replay and
// the render are merge.
func clusterLayers(run clusterRun, trips []trip, busy map[string]float64) (map[string]float64, float64, error) {
	rtt := map[string]float64{}
	decode := map[string]float64{}
	var docs []*sim.Shard
	bytesIn := 0.0
	for _, t := range trips {
		rtt[t.host] += float64(t.end.Sub(t.start)) / 1e6
		bytesIn += float64(len(t.body))
		start := time.Now()
		sh, err := sim.DecodeShard(t.body)
		decode[t.host] += since(start)
		if err != nil {
			return nil, 0, err
		}
		docs = append(docs, sh)
	}
	if len(docs) == 0 {
		return nil, 0, fmt.Errorf("cluster: no shard exchanges recorded")
	}
	critical := ""
	for host, v := range rtt {
		if critical == "" || v > rtt[critical] {
			critical = host
		}
	}
	// A hedged shard can land twice; the coordinator merges one copy.
	docs = distinctShards(docs)
	start := time.Now()
	if _, err := sim.MergeShards(docs[0].Experiment, docs[0].ConfigSHA, docs[0].Reps, docs); err != nil {
		return nil, 0, err
	}
	mergeShards := since(start)
	layers := map[string]float64{
		"shard":  busy[critical],
		"http":   rtt[critical] - busy[critical],
		"decode": decode[critical],
		"dist":   run.run - rtt[critical] - decode[critical] - mergeShards,
		"merge":  mergeShards + run.write + run.replay + run.render,
	}
	return layers, bytesIn, nil
}

// distinctShards keeps the first document per shard range.
func distinctShards(docs []*sim.Shard) []*sim.Shard {
	seen := map[[2]int]bool{}
	var out []*sim.Shard
	for _, d := range docs {
		if k := [2]int{d.Lo, d.Hi}; !seen[k] {
			seen[k] = true
			out = append(out, d)
		}
	}
	return out
}
