package sim

import (
	"context"
	"fmt"

	"rayfade/internal/fading"
	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
	"rayfade/internal/transform"
	"rayfade/internal/utility"
)

// ReductionConfig parameterizes the empirical study of Theorem 2: how much
// better the Rayleigh-fading expectation can be than the best single
// non-fading probability level produced by Algorithm 1, as the network
// grows. The theorem bounds the ratio by O(log* n); the experiment measures
// it.
type ReductionConfig struct {
	Sizes         []int   // network sizes n to sweep
	NetworksPer   int     // networks per size
	Prob          float64 // common Rayleigh transmission probability q
	Beta          float64
	SamplesPerStp int // Monte-Carlo samples per simulation step
	Workers       int
	Seed          uint64
}

func (c ReductionConfig) withDefaults() ReductionConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{25, 50, 100, 200}
	}
	if c.NetworksPer == 0 {
		c.NetworksPer = 5
	}
	if c.Prob == 0 {
		c.Prob = 0.8
	}
	if c.Beta == 0 {
		c.Beta = 2.5
	}
	if c.SamplesPerStp == 0 {
		c.SamplesPerStp = 200
	}
	if c.Seed == 0 {
		c.Seed = 4
	}
	return c
}

// ReductionPoint is the measurement at one network size.
type ReductionPoint struct {
	N int
	// Ratio is E[Rayleigh successes] / best-step non-fading value,
	// averaged over networks. Theorem 2 bounds its expectation by a
	// constant (per step) × the number of steps = O(log* n).
	Ratio stats.Running
	// Levels is the number of Algorithm-1 levels at this n (= Θ(log* n)).
	Levels int
	// LogStar is log*₂(n) for reference.
	LogStar int
}

// ReductionResult is the sweep outcome.
type ReductionResult struct {
	Points []ReductionPoint
	Config ReductionConfig
}

// RunReductionCtx measures the empirical Theorem-2 factor across network
// sizes: for each random network it evaluates the exact expected Rayleigh
// success count at the common probability q, runs Algorithm 1's schedule,
// Monte-Carlo-evaluates each level in the non-fading model, and records the
// ratio of the Rayleigh value to the best level's value. It returns nil and
// ctx.Err() when the context is cancelled before the sweep finishes.
func RunReductionCtx(ctx context.Context, cfg ReductionConfig) (*ReductionResult, error) {
	cfg = cfg.withDefaults()
	ctx, finish := beginExperiment(ctx, "sim.reduction",
		"sizes", len(cfg.Sizes), "networks_per", cfg.NetworksPer, "seed", cfg.Seed)
	defer finish()
	res := &ReductionResult{Config: cfg}
	base := rng.New(cfg.Seed)
	for _, n := range cfg.Sizes {
		// Each network size is one sequential phase of the sweep.
		sizeCtx, sizeSpan := obs.Start(ctx, "size")
		sizeSpan.SetAttr("n", n)
		point := ReductionPoint{
			N:       n,
			Levels:  stats.TowerLevels(n),
			LogStar: stats.LogStar(float64(n)),
		}
		ratios, perErr := ParallelCtx(sizeCtx, cfg.NetworksPer, cfg.Workers, base, func(rep int, src *rng.Source) float64 {
			netCfg := network.Figure1Config()
			netCfg.N = n
			net, err := network.Random(netCfg, src)
			if err != nil {
				panic(fmt.Sprintf("sim: reduction network generation: %v", err))
			}
			m := net.Gains()
			q := fading.UniformProbs(n, cfg.Prob)
			rayleigh := fading.ExpectedSuccessesExact(m, q, cfg.Beta)
			steps := transform.Schedule(q, transform.ScheduleRepeats)
			best, _ := transform.BestStep(m, steps,
				utility.Uniform(utility.Binary{Beta: cfg.Beta}), cfg.SamplesPerStp, src)
			if best.Value.Mean <= 0 {
				// Degenerate tiny instance; count as ratio 1 (the theorem
				// is about non-trivial optima).
				return 1
			}
			return rayleigh / best.Value.Mean
		})
		if perErr != nil {
			sizeSpan.End()
			return nil, perErr
		}
		for _, r := range ratios {
			point.Ratio.Add(r)
		}
		res.Points = append(res.Points, point)
		sizeSpan.End()
	}
	return res, nil
}
