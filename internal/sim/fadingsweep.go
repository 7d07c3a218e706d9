package sim

import (
	"context"
	"fmt"
	"math"

	"rayfade/internal/fading"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
)

// FadingSweepConfig parameterizes the fading-family experiment: success
// counts on the Figure-1 workload under Nakagami-m fading for a range of
// shape parameters. m = 1 is exactly the paper's Rayleigh model; m → ∞
// approaches the non-fading model — so the sweep locates the paper's two
// models as endpoints of one family, the extension its discussion section
// gestures at.
type FadingSweepConfig struct {
	Networks      int       // networks to average over
	Links         int       // links per network
	TransmitSeeds int       // transmit-set draws per network
	FadingSeeds   int       // fading draws per transmit set
	Prob          float64   // common transmission probability
	Shapes        []float64 // Nakagami shapes to sweep (m ≥ 0.5)
	Beta          float64
	Workers       int
	Seed          uint64
}

func (c FadingSweepConfig) withDefaults() FadingSweepConfig {
	if c.Networks == 0 {
		c.Networks = 10
	}
	if c.Links == 0 {
		c.Links = 100
	}
	if c.TransmitSeeds == 0 {
		c.TransmitSeeds = 10
	}
	if c.FadingSeeds == 0 {
		c.FadingSeeds = 5
	}
	if c.Prob == 0 {
		c.Prob = 0.5
	}
	if len(c.Shapes) == 0 {
		c.Shapes = []float64{0.5, 1, 2, 4, 8, 16}
	}
	if c.Beta == 0 {
		c.Beta = 2.5
	}
	if c.Seed == 0 {
		c.Seed = 5
	}
	return c
}

// FadingSweepResult carries per-shape success statistics plus the
// non-fading reference at the same transmission probability.
type FadingSweepResult struct {
	Shapes    []float64
	PerShape  *stats.Series // indexed like Shapes
	NonFading stats.Running
	Rayleigh  stats.Running // the m=1 closed-form expectation, as a check
	Config    FadingSweepConfig
}

// RunFadingSweepCtx measures the expected success count under Nakagami-m
// fading for each shape, against the non-fading count on identical transmit
// sets. It returns nil and ctx.Err() when the context is cancelled before
// the run completes.
func RunFadingSweepCtx(ctx context.Context, cfg FadingSweepConfig) (*FadingSweepResult, error) {
	cfg = cfg.withDefaults()
	ctx, finish := beginExperiment(ctx, "sim.fadingsweep",
		"networks", cfg.Networks, "links", cfg.Links, "shapes", len(cfg.Shapes), "seed", cfg.Seed)
	defer finish()
	type netResult struct {
		perShape *stats.Series
		nf       stats.Running
		rl       stats.Running
	}
	base := rng.New(cfg.Seed)
	perNet, perErr := ParallelCtx(ctx, cfg.Networks, cfg.Workers, base, func(_ context.Context, rep int, src *rng.Source) netResult {
		netCfg := network.Figure1Config()
		netCfg.N = cfg.Links
		net, err := network.Random(netCfg, src)
		if err != nil {
			panic(fmt.Sprintf("sim: fading sweep network generation: %v", err))
		}
		m := net.Gains()
		out := netResult{perShape: stats.NewSeries(cfg.Shapes)}
		q := fading.UniformProbs(m.N, cfg.Prob)
		out.rl.Add(fading.ExpectedSuccessesExact(m, q, cfg.Beta))
		active := make([]bool, m.N)
		vals := make([]float64, m.N)
		idx := make([]int, 0, m.N)
		for ts := 0; ts < cfg.TransmitSeeds; ts++ {
			for i := range active {
				active[i] = src.Bernoulli(cfg.Prob)
			}
			out.nf.Add(float64(countNonFadingInto(m, active, cfg.Beta, vals)))
			for si, shape := range cfg.Shapes {
				sampler := fading.NakagamiGains{M: shape}
				for fs := 0; fs < cfg.FadingSeeds; fs++ {
					fading.SampleSINRsWithInto(m, active, sampler, src, vals, idx)
					count := 0
					for i, a := range active {
						if a && vals[i] >= cfg.Beta {
							count++
						}
					}
					out.perShape.Observe(si, float64(count))
				}
				tickRealizations(cfg.FadingSeeds)
			}
		}
		return out
	})
	if perErr != nil {
		return nil, perErr
	}
	res := &FadingSweepResult{
		Shapes:   cfg.Shapes,
		PerShape: stats.NewSeries(cfg.Shapes),
		Config:   cfg,
	}
	for _, nr := range perNet {
		res.PerShape.Merge(nr.perShape)
		res.NonFading.Merge(nr.nf)
		res.Rayleigh.Merge(nr.rl)
	}
	return res, nil
}

// RayleighShapeIndex returns the index of m = 1 in the sweep, or -1.
func (r *FadingSweepResult) RayleighShapeIndex() int {
	for i, s := range r.Shapes {
		if math.Abs(s-1) < 1e-12 {
			return i
		}
	}
	return -1
}
