package sim

import (
	"context"
	"fmt"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/graphsched"
	"rayfade/internal/latency"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
	"rayfade/internal/transform"
)

// BaselineConfig parameterizes the graph-model-vs-SINR comparison: both
// scheduling philosophies on identical instances, evaluated under the true
// SINR constraint and under Rayleigh fading — the quantitative version of
// the paper's introduction ("significantly different techniques than in
// graph-based models have to be applied").
type BaselineConfig struct {
	Networks int
	Links    int
	Beta     float64
	Tau      float64 // conflict-graph threshold
	Workers  int
	Seed     uint64
}

func (c BaselineConfig) withDefaults() BaselineConfig {
	if c.Networks == 0 {
		c.Networks = 10
	}
	if c.Links == 0 {
		c.Links = 100
	}
	if c.Beta == 0 {
		c.Beta = 2.5
	}
	if c.Tau == 0 {
		c.Tau = graphsched.DefaultThreshold
	}
	if c.Seed == 0 {
		c.Seed = 9
	}
	return c
}

// BaselineResult aggregates the comparison.
type BaselineResult struct {
	// Capacity: set sizes and how many of the selected links actually
	// succeed under the SINR constraint / in expectation under Rayleigh.
	GraphSetSize   stats.Running
	GraphSINRValid stats.Running // SINR-valid links in the graph set
	GraphRayleigh  stats.Running // exact E[successes] of the graph set
	SINRSetSize    stats.Running
	SINRRayleigh   stats.Running
	// Latency: schedule lengths and violations.
	GraphSlots      stats.Running
	GraphViolations stats.Running // scheduled links failing the SINR check
	SINRSlots       stats.Running
	// RayleighReplaySlots: slots for the SINR schedule replayed under
	// fading with the Section-4 factor.
	SINRRayleighSlots stats.Running
	Config            BaselineConfig
}

// RunBaselineCtx compares conflict-graph scheduling to SINR-aware
// scheduling. It returns nil and ctx.Err() when the context is cancelled
// before the sweep finishes.
func RunBaselineCtx(ctx context.Context, cfg BaselineConfig) (*BaselineResult, error) {
	cfg = cfg.withDefaults()
	ctx, finish := beginExperiment(ctx, "sim.baseline",
		"networks", cfg.Networks, "links", cfg.Links, "seed", cfg.Seed)
	defer finish()
	type netResult struct {
		gSize, gValid, gRay   float64
		sSize, sRay           float64
		gSlots, gViol, sSlots float64
		sRaySlots             float64
	}
	base := rng.New(cfg.Seed)
	perNet, perErr := ParallelCtx(ctx, cfg.Networks, cfg.Workers, base, func(ctx context.Context, rep int, src *rng.Source) netResult {
		netCfg := network.Figure1Config()
		netCfg.N = cfg.Links
		net, err := network.Random(netCfg, src)
		if err != nil {
			panic(fmt.Sprintf("sim: baseline network generation: %v", err))
		}
		m := net.Gains()
		var out netResult

		// Capacity: graph independent set vs SINR greedy.
		g := graphsched.FromMatrix(m, cfg.Beta, cfg.Tau)
		gSet := g.IndependentSet()
		out.gSize = float64(len(gSet))
		ev := graphsched.EvaluateSchedule(m, [][]int{gSet}, cfg.Beta)
		out.gValid = float64(ev.SINRSuccesses)
		out.gRay = fading.ExpectedBinaryValueOfSet(m, gSet, cfg.Beta)

		sSet, _ := capacity.GreedyUniform(ctx, net, cfg.Beta) // fails only on cancellation, which the fan-out reports
		out.sSize = float64(len(sSet))
		out.sRay = fading.ExpectedBinaryValueOfSet(m, sSet, cfg.Beta)

		// Latency: coloring vs repeated capacity.
		classes := g.Coloring()
		out.gSlots = float64(len(classes))
		out.gViol = float64(graphsched.EvaluateSchedule(m, classes, cfg.Beta).Violations)
		capFn := latency.GreedyCapacity(capacity.LengthOrder(net), capacity.DefaultTau)
		sched, err := latency.RepeatedCapacityCtx(ctx, m, cfg.Beta, capFn)
		if err != nil {
			if ctx.Err() != nil {
				return out // the fan-out reports the cancellation
			}
			panic(fmt.Sprintf("sim: baseline scheduling: %v", err))
		}
		out.sSlots = float64(len(sched))
		slots, done, _ := latency.RepeatUntilDoneCtx(ctx, m, sched, cfg.Beta,
			transform.AlohaRepeats, 10000, latency.NewRayleigh(fading.NewCounter(m), src.Split()))
		if done {
			out.sRaySlots = float64(slots)
		}
		return out
	})
	if perErr != nil {
		return nil, perErr
	}
	res := &BaselineResult{Config: cfg}
	for _, nr := range perNet {
		res.GraphSetSize.Add(nr.gSize)
		res.GraphSINRValid.Add(nr.gValid)
		res.GraphRayleigh.Add(nr.gRay)
		res.SINRSetSize.Add(nr.sSize)
		res.SINRRayleigh.Add(nr.sRay)
		res.GraphSlots.Add(nr.gSlots)
		res.GraphViolations.Add(nr.gViol)
		res.SINRSlots.Add(nr.sSlots)
		if nr.sRaySlots > 0 {
			res.SINRRayleighSlots.Add(nr.sRaySlots)
		}
	}
	return res, nil
}
