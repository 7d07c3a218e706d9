package sim

import (
	"context"
	"fmt"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/latency"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
	"rayfade/internal/transform"
)

// LatencyConfig parameterizes the latency-minimization comparison: the
// centralized repeated-capacity schedule and the two distributed protocols
// (fixed-probability and backoff ALOHA), each in both interference models,
// on the Figure-1 workload.
type LatencyConfig struct {
	Networks  int
	Links     int
	Trials    int // stochastic replays per network
	Beta      float64
	AlohaProb float64
	Workers   int
	Seed      uint64
}

func (c LatencyConfig) withDefaults() LatencyConfig {
	if c.Networks == 0 {
		c.Networks = 10
	}
	if c.Links == 0 {
		c.Links = 100
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	if c.Beta == 0 {
		c.Beta = 2.5
	}
	if c.AlohaProb == 0 {
		c.AlohaProb = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 8
	}
	return c
}

// LatencyResult aggregates slot counts per scheduler × model.
type LatencyResult struct {
	// ScheduleLen is the non-fading repeated-capacity schedule length.
	ScheduleLen stats.Running
	// ScheduleRayleigh is the slot count replaying that schedule under
	// Rayleigh fading with the Section-4 repetition factor.
	ScheduleRayleigh stats.Running
	// AlohaNF / AlohaRL are fixed-probability ALOHA slot counts.
	AlohaNF, AlohaRL stats.Running
	// BackoffNF / BackoffRL are adaptive-backoff slot counts.
	BackoffNF, BackoffRL stats.Running
	// Incomplete counts runs that hit their slot budget.
	Incomplete int
	Config     LatencyConfig
}

// RunLatencyCtx measures all three latency schedulers in both models. It
// returns nil and ctx.Err() when the context is cancelled before the run
// completes.
func RunLatencyCtx(ctx context.Context, cfg LatencyConfig) (*LatencyResult, error) {
	cfg = cfg.withDefaults()
	ctx, finish := beginExperiment(ctx, "sim.latency",
		"networks", cfg.Networks, "links", cfg.Links, "trials", cfg.Trials, "seed", cfg.Seed)
	defer finish()
	type netResult struct {
		schedLen, schedRL    stats.Running
		alohaNF, alohaRL     stats.Running
		backoffNF, backoffRL stats.Running
		incomplete           int
	}
	base := rng.New(cfg.Seed)
	perNet, perErr := ParallelCtx(ctx, cfg.Networks, cfg.Workers, base, func(ctx context.Context, rep int, src *rng.Source) netResult {
		netCfg := network.Figure1Config()
		netCfg.N = cfg.Links
		net, err := network.Random(netCfg, src)
		if err != nil {
			panic(fmt.Sprintf("sim: latency network generation: %v", err))
		}
		m := net.Gains()
		plan := fading.NewPlan(m)
		capFn := latency.GreedyCapacity(capacity.LengthOrder(net), capacity.DefaultTau)
		var out netResult
		sched, err := latency.RepeatedCapacityCtx(ctx, m, cfg.Beta, capFn)
		if err != nil {
			if ctx.Err() != nil {
				return out // the fan-out reports the cancellation
			}
			panic(fmt.Sprintf("sim: latency scheduling: %v", err))
		}
		out.schedLen.Add(float64(len(sched)))
		maxSlots := 4096 * cfg.Links
		// The schedulers below fail only on cancellation, which the fan-out
		// reports for the whole run, so their errors are not checked.
		for trial := 0; trial < cfg.Trials; trial++ {
			// Each Rayleigh model decides with its own Counter of the network's
			// Plan; the Split() call sites keep their seed-era positions so
			// fixed-seed outputs are unchanged.
			slots, done, _ := latency.RepeatUntilDoneCtx(ctx, m, sched, cfg.Beta,
				transform.AlohaRepeats, 10000, latency.NewRayleigh(plan.Counter(), src.Split()))
			if done {
				out.schedRL.Add(float64(slots))
			} else {
				out.incomplete++
			}
			a, _ := latency.AlohaCtx(ctx, m, cfg.Beta,
				latency.AlohaConfig{Prob: cfg.AlohaProb, MaxSlots: maxSlots},
				src.Split(), latency.NonFading{})
			record(&out.alohaNF, &out.incomplete, a)
			fadeSrc := src.Split()
			b, _ := latency.AlohaCtx(ctx, m, cfg.Beta,
				latency.AlohaConfig{Prob: cfg.AlohaProb, Repeats: transform.AlohaRepeats, MaxSlots: maxSlots},
				src.Split(), latency.NewRayleigh(plan.Counter(), fadeSrc))
			record(&out.alohaRL, &out.incomplete, b)
			bo := latency.DefaultBackoff
			bo.MaxSlots = maxSlots
			c, _ := latency.BackoffAloha(ctx, m, cfg.Beta, bo, src.Split(), latency.NonFading{})
			record(&out.backoffNF, &out.incomplete, c)
			bo.Repeats = transform.AlohaRepeats
			fadeSrc2 := src.Split()
			d, _ := latency.BackoffAloha(ctx, m, cfg.Beta, bo, src.Split(), latency.NewRayleigh(plan.Counter(), fadeSrc2))
			record(&out.backoffRL, &out.incomplete, d)
		}
		return out
	})
	if perErr != nil {
		return nil, perErr
	}
	res := &LatencyResult{Config: cfg}
	for _, nr := range perNet {
		res.ScheduleLen.Merge(nr.schedLen)
		res.ScheduleRayleigh.Merge(nr.schedRL)
		res.AlohaNF.Merge(nr.alohaNF)
		res.AlohaRL.Merge(nr.alohaRL)
		res.BackoffNF.Merge(nr.backoffNF)
		res.BackoffRL.Merge(nr.backoffRL)
		res.Incomplete += nr.incomplete
	}
	return res, nil
}

func record(acc *stats.Running, incomplete *int, r latency.AlohaResult) {
	if r.Done {
		acc.Add(float64(r.Slots))
	} else {
		*incomplete++
	}
}
