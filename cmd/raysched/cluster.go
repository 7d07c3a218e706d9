package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rayfade/internal/client"
	"rayfade/internal/dist"
	"rayfade/internal/obs"
	"rayfade/internal/progress"
	"rayfade/internal/server"
	"rayfade/internal/sim"
)

// cmdCluster runs Figure 1 distributed across a set of rayschedd workers:
// the coordinator shards the replication index space, dispatches shards over
// POST /v1/shard with lease-based reassignment, merges the results into a
// checkpoint, and replays it through the exact single-node pipeline — so the
// output is byte-identical to `raysched figure1` with the same parameters.
func cmdCluster(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	workersFlag := fs.String("workers", "", "comma-separated rayschedd base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
	networks := fs.Int("networks", 40, "number of random networks")
	links := fs.Int("links", 100, "links per network")
	txSeeds := fs.Int("txseeds", 25, "transmit-set draws per probability")
	fdSeeds := fs.Int("fadeseeds", 10, "fading draws per transmit set")
	points := fs.Int("points", 20, "probability grid points")
	seed := fs.Uint64("seed", 1, "master seed")
	topology := fs.String("topology", "uniform", "receiver deployment: uniform or cluster")
	shardSize := fs.Int("shard-size", 0, "replications per shard (0 = about four waves per worker)")
	lease := fs.Duration("lease", 2*time.Minute, "per-dispatch lease; a worker missing its lease has the shard reassigned")
	maxAttempts := fs.Int("max-attempts", 4, "dispatch attempts per shard across all workers before the run aborts")
	deadAfter := fs.Int("dead-after", 2, "consecutive failures after which a worker is quarantined")
	journal := fs.String("journal", "", "journal landed shards into this directory; rerunning with the same directory resumes, re-dispatching only uncovered ranges")
	hedge := fs.Duration("hedge", 0, "speculatively re-dispatch a shard in flight longer than this (0 = adaptive from completed shard durations, negative = off)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "base interval between /healthz probes of a quarantined worker")
	maxProbes := fs.Int("max-probes", 8, "consecutive failed probes before a quarantined worker is declared dead")
	format := fs.String("format", "md", "output format: csv, md, ascii, svg")
	out := fs.String("out", "", "write CSV output atomically to this file instead of stdout (implies -format csv)")
	mergedCk := fs.String("merged-checkpoint", "", "keep the merged checkpoint at this path (default: a temp file, removed afterwards)")
	prog := fs.Bool("progress", false, "report cluster-wide progress to stderr")
	status := fs.Bool("status", false, "print a one-shot aggregated telemetry snapshot of every worker (/healthz) and exit")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFormat(*format); err != nil {
		return err
	}
	workers := splitWorkers(*workersFlag)
	if len(workers) == 0 {
		return fmt.Errorf("cluster: -workers is required (comma-separated rayschedd URLs)")
	}
	if *status {
		return runClusterStatus(ctx, workers)
	}
	wire := server.Figure1ShardConfig{
		Networks: *networks, Links: *links,
		TransmitSeeds: *txSeeds, FadingSeeds: *fdSeeds,
		Points: *points, Seed: *seed, Topology: *topology,
	}
	cfg := dist.Config{
		Workers:       workers,
		ShardSize:     *shardSize,
		LeaseTimeout:  *lease,
		MaxAttempts:   *maxAttempts,
		DeadAfter:     *deadAfter,
		JournalDir:    *journal,
		HedgeAfter:    *hedge,
		ProbeInterval: *probeInterval,
		MaxProbes:     *maxProbes,
		Client:        client.Config{JitterSeed: *seed},
	}
	if *prog {
		cfg.Tracker = progress.New("cluster", os.Stderr)
	}
	res, err := runExperiment(ctx, of, false, "cluster", func(ctx context.Context, cfg dist.Config) (*sim.Figure1Result, error) {
		return runCluster(ctx, of, cfg, wire, *mergedCk)
	}, cfg)
	if err != nil {
		return err
	}
	return renderFigure1(res, *format, *out)
}

// runCluster dispatches the Figure-1 replications described by wire across
// cfg's workers, merges the shard results into a checkpoint (kept at
// mergedCk when set) and replays it through the single-node pipeline.
func runCluster(ctx context.Context, of *obsFlags, cfg dist.Config, wire server.Figure1ShardConfig, mergedCk string) (*sim.Figure1Result, error) {
	simCfg := wire.SimConfig()
	sha, err := sim.Figure1ConfigSHA(simCfg)
	if err != nil {
		return nil, err
	}
	// The coordinator logs through the -log logger of.start built (nil
	// discards); a nil Tracker, without -progress, reports nothing.
	cfg.Log = of.log
	cfg.Tracker.Start(progressInterval)
	defer cfg.Tracker.Stop()

	co, err := dist.New(cfg)
	if err != nil {
		return nil, err
	}
	live, err := co.Discover(ctx)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "raysched: cluster: %d/%d workers live\n", len(live), len(cfg.Workers))
	for _, w := range live {
		fmt.Fprintf(os.Stderr, "raysched: cluster:   %s instance=%s gomaxprocs=%d\n", w.URL, w.Instance, w.GoMaxProcs)
	}

	timeoutMS := cfg.LeaseTimeout.Milliseconds()
	job := dist.Job{
		Experiment: sim.ExperimentFigure1,
		ConfigSHA:  sha,
		Reps:       simCfg.Networks,
		NewRequest: func(lo, hi int) ([]byte, error) {
			return json.Marshal(server.ShardRequest{
				Experiment: sim.ExperimentFigure1,
				Lo:         lo, Hi: hi,
				Figure1:   &wire,
				TimeoutMS: timeoutMS,
			})
		},
	}
	results, st, err := co.Run(ctx, job)
	if err != nil {
		return nil, fmt.Errorf("cluster run (%d/%d shards merged, %d resumed, %d reassigned, %d dead workers): %w",
			st.Completed, st.Shards, st.Resumed, st.Reassigned, st.DeadWorkers, err)
	}
	fmt.Fprintf(os.Stderr, "raysched: cluster: %d shards merged (%d resumed from journal), %d reassigned, %d hedged, %d quarantined (%d readmitted), %d dead workers\n",
		st.Shards, st.Resumed, st.Reassigned, st.Hedged, st.Quarantined, st.Readmitted, st.DeadWorkers)

	// With tracing on, pull each surviving worker's span collection for this
	// run so of's finish writes one merged cluster trace. The trace ID is
	// the run ID — the same value the dispatch spans sent in X-Trace-Context.
	if traceID := obs.RunID(ctx); of.trace != "" && traceID != "" {
		for _, w := range live {
			b, err := co.FetchTrace(ctx, w.URL, traceID)
			if err != nil {
				// A worker that died mid-run, or one that served no shards,
				// simply contributes nothing — the merged trace covers the
				// survivors.
				fmt.Fprintf(os.Stderr, "raysched: cluster: no trace from %s: %v\n", w.URL, err)
				continue
			}
			of.addBundles(b)
		}
	}

	if mergedCk == "" {
		dir, err := os.MkdirTemp("", "raysched-cluster-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		mergedCk = filepath.Join(dir, "merged.ckpt")
	}
	if err := sim.WriteMergedCheckpoint(mergedCk, job.Experiment, sha, job.Reps, results); err != nil {
		return nil, err
	}

	// Replay: every replication restores from the merged checkpoint, so this
	// computes nothing — it routes the remote results through the identical
	// aggregation path as a single-node run.
	simCfg.Checkpoint = mergedCk
	return sim.RunFigure1Ctx(ctx, simCfg)
}

// runClusterStatus is `raysched cluster -status`: one /healthz sweep over the
// configured workers, rendered as an aggregated RED-style report on stdout.
// Unreachable workers are reported, not fatal — a status check of a
// degraded cluster must still answer; the command fails only when no worker
// is reachable at all.
func runClusterStatus(ctx context.Context, workers []string) error {
	co, err := dist.New(dist.Config{Workers: workers})
	if err != nil {
		return err
	}
	snap := co.Snapshot(ctx)
	snap.WriteText(os.Stdout)
	if snap.Live == 0 {
		return fmt.Errorf("cluster: none of the %d configured workers is reachable", len(workers))
	}
	return nil
}

// splitWorkers parses the -workers flag: comma-separated URLs, blanks
// tolerated, trailing slashes trimmed so URL joining stays uniform.
func splitWorkers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimRight(strings.TrimSpace(part), "/")
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
