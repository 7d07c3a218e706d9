package main

import (
	"context"
	"strings"
)

// workload is one named set of inputs. run measures the end-to-end metrics
// untraced; traced measures the per-layer metrics.
type workload struct {
	name   string
	why    string
	run    func(ctx context.Context, cfg runConfig, rep *report) error
	traced func(ctx context.Context, cfg runConfig, rep *report) error
}

// workloads are the benchmark's workloads. The names are fixed: results
// and later changes cite them. BENCHMARK.json repeats each name and why.
var workloads = []workload{
	{
		name:   "fig1",
		why:    "Figure 1 at paper settings, one run at a time: rng.Exp and fading row walks, no HTTP; its traced run is the only one exposing the sim fan-out at Workers=2",
		run:    runFig1,
		traced: traceFig1,
	},
	{
		name:   "serve-hot",
		why:    "open-loop 800/s of estimates over 16 cache-resident bodies, 75% inline: decode, netio parse, key hashing and cache lookup, not compute",
		run:    runServe(serveHotSpec),
		traced: traceServe(serveHotSpec),
	},
	{
		name:   "serve-cold",
		why:    "open-loop 70/s where every request misses the cache: pool queueing and compute in network, fading and capacity; cache and sessions take writes",
		run:    runServe(serveColdSpec),
		traced: traceServe(serveColdSpec),
	},
	{
		name:   "cluster",
		why:    "the fig1 computation sharded by the dist coordinator over two in-process rayschedd workers: adds dispatch, transfer, decode, merge and replay",
		run:    runCluster,
		traced: traceCluster,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
