package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"rayfade/benchsuite/load"
	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/netio"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
)

// probeRepeats is how often each call is timed per network.
const probeRepeats = 5

// probeUnitCosts times one call into each layer's public function on the
// workload's networks and records the unit-cost metrics, corrected for the
// machine's slowdown like every reported time. It returns the cost of one
// exponential draw in milliseconds, which attribution uses to split the
// draws out of the fading kernel.
func probeUnitCosts(rep *report, topos []topology, seed uint64) (expMS float64, err error) {
	if len(topos) > 8 {
		topos = topos[:8]
	}
	rep.pause()
	src := rng.New(streamSeed(seed, "probe"))
	times := map[string][]float64{}
	add := func(name string, t time.Time) { times[name] = append(times[name], since(t)*1e3) } // µs
	for _, tp := range topos {
		for r := 0; r < probeRepeats; r++ {
			t := time.Now()
			if _, err := network.Random(network.Figure1Config(), src); err != nil {
				return 0, err
			}
			add("network.random", t)

			t = time.Now()
			m := tp.net.Gains()
			add("network.gains", t)

			active := make([]bool, m.N)
			for i := range active {
				active[i] = src.Bernoulli(0.5)
			}
			vals := make([]float64, m.N)
			idx := make([]int, 0, m.N)
			t = time.Now()
			sinr.ValuesInto(m, active, vals)
			add("sinr.values", t)

			t = time.Now()
			fading.CountSuccesses(m, active, 2.5, src, vals, idx)
			add("fading.count_successes", t)

			// The draws of one CountSuccesses call, without the SINR sums.
			var sink float64
			t = time.Now()
			for i, ai := range active {
				if !ai {
					continue
				}
				row := m.Incoming(i)
				for j, aj := range active {
					if aj {
						sink += src.Exp(row[j])
					}
				}
			}
			times["rng.exp"] = append(times["rng.exp"], since(t)*1e6/activePairs(active)) // ns
			_ = sink

			q := fading.UniformProbs(m.N, 0.5)
			t = time.Now()
			fading.ExpectedSuccessesExact(m, q, 2.5)
			add("fading.exact", t)

			t = time.Now()
			set := capacity.GreedyAffectance(m, 2.5, capacity.DefaultTau, capacity.LengthOrder(tp.net))
			fading.ExpectedBinaryValueOfSet(m, set, 2.5)
			add("capacity.greedy", t)

			t = time.Now()
			net, err := netio.Load(bytes.NewReader(tp.canon))
			if err != nil {
				return 0, err
			}
			add("netio.load", t)
			t = time.Now()
			if err := netio.Save(io.Discard, net); err != nil {
				return 0, err
			}
			add("netio.save", t)

			body, err := json.Marshal(estimateRequest{Network: tp.canon, Samples: 1000, Seed: 1})
			if err != nil {
				return 0, err
			}
			var req estimateRequest
			t = time.Now()
			if err := decodeStrict(body, &req); err != nil {
				return 0, err
			}
			add("server.decode", t)

			t = time.Now()
			if _, err := requestKey("/v1/estimate", estimateParams{Beta: 2.5, Prob: 0.5, Samples: 1000, Seed: 1}, tp.canon); err != nil {
				return 0, err
			}
			add("server.key", t)

			t = time.Now()
			if _, err := json.Marshal(&estimateResponse{Links: m.N, Beta: 2.5, Prob: 0.5, Seed: 1, Samples: 1000,
				Mean: 21.318, Stderr: 0.104, Exact: 21.337}); err != nil {
				return 0, err
			}
			add("server.marshal", t)
		}
	}
	f := rep.pause()
	expNS := load.Median(times["rng.exp"]) / f
	rep.set("rng.exp_ns", expNS)
	rep.set("network.random_ms", load.Median(times["network.random"])/f/1e3)
	for _, name := range []string{"network.gains", "sinr.values", "fading.count_successes", "fading.exact",
		"capacity.greedy", "netio.load", "netio.save", "server.decode", "server.key", "server.marshal"} {
		rep.set(name+"_us", load.Median(times[name])/f)
	}
	return expNS / 1e6, nil
}

// estimateParams are /v1/estimate's defaults-applied parameters, the part
// of the cache key that is not the topology.
type estimateParams struct {
	Beta    float64 `json:"beta"`
	Prob    float64 `json:"prob"`
	Samples int     `json:"samples"`
	Seed    uint64  `json:"seed"`
}

// scheduleParams are /v1/schedule's defaults-applied parameters.
type scheduleParams struct {
	Algorithm string  `json:"algorithm"`
	Beta      float64 `json:"beta"`
}

// attribution lays one workload's operations out by layer: per operation,
// the milliseconds spent in each layer on the blocking path. The share of a
// layer is the median of its time over operations against the median
// operation latency; what the layers leave unexplained is the residual.
type attribution struct {
	workload string
	ops      []map[string]float64
	latency  []float64 // ms, the same operations
}

func (a *attribution) add(layers map[string]float64, latencyMS float64) {
	a.ops = append(a.ops, layers)
	a.latency = append(a.latency, latencyMS)
}

// attrLayers are the layers with an attr.<layer>_pct metric.
var attrLayers = []string{"backlog", "http", "decode", "netio", "key", "queue", "network", "rng",
	"fading", "sinr", "capacity", "marshal", "sim", "shard", "dist", "merge"}

// record sets the attr.*_pct and residual_pct metrics and prints the table.
func (a *attribution) record(rep *report, w io.Writer) {
	med := load.Median(a.latency)
	fmt.Fprintf(w, "attribution %s: %d operations, median %.4g ms\n", a.workload, len(a.ops), med)
	explained := 0.0
	for _, layer := range attrLayers {
		vs := make([]float64, len(a.ops))
		for i, op := range a.ops {
			vs[i] = op[layer]
		}
		m := load.Median(vs)
		explained += m
		rep.set("attr."+layer+"_pct", 100*m/med)
		if m != 0 {
			fmt.Fprintf(w, "  %-10s %10.4g ms %6.1f%%\n", layer, m, 100*m/med)
		}
	}
	rest := med - explained
	rep.set("residual_pct", 100*rest/med)
	fmt.Fprintf(w, "  %-10s %10.4g ms %6.1f%%\n  %-10s %10.4g ms\n", "residual", rest, 100*rest/med, "total", med)
	for _, op := range a.ops {
		for layer := range op {
			if !slices.Contains(attrLayers, layer) {
				panic(fmt.Sprintf("benchsuite: attribution layer %q has no metric", layer))
			}
		}
	}
}

// splitDraws moves the exponential draws out of a replayed fading layer
// into rng, pricing each draw at the probed unit cost.
func splitDraws(c costs, expMS float64) costs {
	d := c.draws * expMS
	if d > c.layer["fading"] {
		d = c.layer["fading"]
	}
	c.layer["fading"] -= d
	c.layer["rng"] += d
	return c
}

// pick returns up to n of the indices [0, total), chosen without
// replacement from r, in ascending order.
func pick(r *rand.Rand, total, n int) []int {
	if total <= n {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := r.Perm(total)[:n]
	sort.Ints(out)
	return out
}
