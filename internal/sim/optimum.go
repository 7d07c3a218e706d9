package sim

import (
	"context"
	"fmt"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/geom"
	"rayfade/internal/network"
	"rayfade/internal/opt"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
)

// OptimumConfig parameterizes the in-text optimum reference of Section 7
// ("choosing the optimal set of sending links under uniform powers, we
// reach on average 49.75 successful transmissions"). Zero values default to
// the Figure-1 workload.
type OptimumConfig struct {
	Networks int // networks to average over (paper: 40)
	Links    int // links per network (paper: 100)
	Beta     float64
	Alpha    float64
	Noise    float64
	DMin     float64
	DMax     float64
	Side     float64
	Power    float64
	Search   opt.LocalSearchConfig
	Workers  int
	Seed     uint64
}

func (c OptimumConfig) withDefaults() OptimumConfig {
	if c.Networks == 0 {
		c.Networks = 40
	}
	if c.Links == 0 {
		c.Links = 100
	}
	if c.Beta == 0 {
		c.Beta = 2.5
	}
	if c.Alpha == 0 {
		c.Alpha = 2.2
	}
	if c.Noise == 0 {
		c.Noise = 4e-7
	}
	if c.DMin == 0 && c.DMax == 0 {
		c.DMin, c.DMax = 20, 40
	}
	if c.Side == 0 {
		c.Side = 1000
	}
	if c.Power == 0 {
		c.Power = 2
	}
	if c.Search.Restarts == 0 {
		c.Search = opt.DefaultLocalSearch
	}
	if c.Seed == 0 {
		c.Seed = 3
	}
	return c
}

// OptimumResult summarizes the optimum estimate across networks.
type OptimumResult struct {
	// Greedy is the plain length-greedy capacity (the algorithmic
	// baseline the regret learners are compared to).
	Greedy stats.Running
	// LocalSearch is the local-search optimum estimate (the paper's
	// "optimal set" stand-in; a certified-feasible lower bound on OPT).
	LocalSearch stats.Running
	// RayleighOfOptimum is the exact expected number of Rayleigh-fading
	// successes when the local-search optimum set transmits (Theorem 1) —
	// the fading-side value of the paper's "49.75" set, which Lemma 2
	// lower-bounds by LocalSearch/e.
	RayleighOfOptimum stats.Running
	Config            OptimumConfig
}

// RunOptimumCtx estimates the Figure-1 workload's maximum feasible set size
// under uniform powers, per network, by greedy and by local search. It
// returns nil and ctx.Err() when the context is cancelled before the run
// completes.
func RunOptimumCtx(ctx context.Context, cfg OptimumConfig) (*OptimumResult, error) {
	cfg = cfg.withDefaults()
	ctx, finish := beginExperiment(ctx, "sim.optimum",
		"networks", cfg.Networks, "links", cfg.Links, "restarts", cfg.Search.Restarts, "seed", cfg.Seed)
	defer finish()
	type netResult struct {
		greedy, local, rayleigh float64
	}
	base := rng.New(cfg.Seed)
	perNet, perErr := ParallelCtx(ctx, cfg.Networks, cfg.Workers, base, func(ctx context.Context, rep int, src *rng.Source) netResult {
		netCfg := network.Config{
			N:     cfg.Links,
			Area:  geom.Square(cfg.Side),
			DMin:  cfg.DMin,
			DMax:  cfg.DMax,
			Alpha: cfg.Alpha,
			Noise: cfg.Noise,
			Power: network.UniformPower{P: cfg.Power},
		}
		net, err := network.Random(netCfg, src)
		if err != nil {
			panic(fmt.Sprintf("sim: optimum network generation: %v", err))
		}
		m := net.Gains()
		set := opt.LocalSearch(m, cfg.Beta, cfg.Search, src)
		greedy, _ := capacity.GreedyUniform(ctx, net, cfg.Beta) // fails only on cancellation, which the fan-out reports
		return netResult{
			greedy:   float64(len(greedy)),
			local:    float64(len(set)),
			rayleigh: fading.ExpectedBinaryValueOfSet(m, set, cfg.Beta),
		}
	})
	if perErr != nil {
		return nil, perErr
	}
	res := &OptimumResult{Config: cfg}
	for _, nr := range perNet {
		res.Greedy.Add(nr.greedy)
		res.LocalSearch.Add(nr.local)
		res.RayleighOfOptimum.Add(nr.rayleigh)
	}
	return res, nil
}
