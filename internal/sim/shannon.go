package sim

import (
	"context"
	"fmt"

	"rayfade/internal/fading"
	"rayfade/internal/geom"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/stats"
	"rayfade/internal/utility"
)

// ShannonConfig parameterizes the flexible-data-rate experiment: total
// Shannon capacity Σ log(1+γ) under probabilistic access, in both models —
// the non-binary utility regime the paper's Definition 1 admits and its
// capacity results cover.
type ShannonConfig struct {
	Networks      int
	Links         int
	TransmitSeeds int
	FadingSeeds   int
	Probs         []float64
	Alpha         float64
	Noise         float64
	DMin, DMax    float64
	Side          float64
	Power         float64
	Workers       int
	Seed          uint64
	// Exact also evaluates the Rayleigh curve by deterministic quadrature
	// over the Theorem-1 closed form (fading.TotalShannonExact) — slower,
	// but it cross-validates the Monte-Carlo curve with zero variance.
	Exact bool
}

func (c ShannonConfig) withDefaults() ShannonConfig {
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
	if len(c.Probs) == 0 {
		c.Probs = stats.Linspace(0.1, 1.0, 10)
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
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// Shannon experiment curve keys.
const (
	CurveShannonNonFading = "shannon/non-fading"
	CurveShannonRayleigh  = "shannon/rayleigh"
	// CurveShannonExact is present only when Config.Exact is set.
	CurveShannonExact = "shannon/rayleigh-exact"
)

// ShannonResult carries total-capacity curves over the probability grid.
type ShannonResult struct {
	Probs  []float64
	Curves map[string]*stats.Series
	Config ShannonConfig
}

// RunShannonCtx measures E[Σ_i log(1+γ_i)] (nats) against the transmission
// probability in both interference models on the Figure-1 geometry. It
// returns nil and ctx.Err() when the context is cancelled before the run
// completes.
func RunShannonCtx(ctx context.Context, cfg ShannonConfig) (*ShannonResult, error) {
	cfg = cfg.withDefaults()
	ctx, finish := beginExperiment(ctx, "sim.shannon",
		"networks", cfg.Networks, "links", cfg.Links, "exact", cfg.Exact, "seed", cfg.Seed)
	defer finish()
	us := utility.Uniform(utility.Shannon{})
	type netResult struct {
		nf, rl, exact *stats.Series
	}
	base := rng.New(cfg.Seed)
	perNet, perErr := ParallelCtx(ctx, cfg.Networks, cfg.Workers, base, func(_ context.Context, rep int, src *rng.Source) netResult {
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
			panic(fmt.Sprintf("sim: shannon network generation: %v", err))
		}
		m := net.Gains()
		out := netResult{nf: stats.NewSeries(cfg.Probs), rl: stats.NewSeries(cfg.Probs)}
		if cfg.Exact {
			out.exact = stats.NewSeries(cfg.Probs)
		}
		active := make([]bool, m.N)
		vals := make([]float64, m.N)
		idx := make([]int, 0, m.N)
		for pi, p := range cfg.Probs {
			for ts := 0; ts < cfg.TransmitSeeds; ts++ {
				for i := range active {
					active[i] = src.Bernoulli(p)
				}
				out.nf.Observe(pi, utility.Sum(us, sinr.ValuesInto(m, active, vals)))
				for fs := 0; fs < cfg.FadingSeeds; fs++ {
					out.rl.Observe(pi, utility.Sum(us, fading.SampleSINRsInto(m, active, src, vals, idx)))
				}
				tickRealizations(cfg.FadingSeeds)
			}
			if cfg.Exact {
				q := fading.UniformProbs(m.N, p)
				v, err := fading.TotalShannonExact(m, q, 1e-7)
				if err != nil {
					panic(fmt.Sprintf("sim: exact Shannon rate: %v", err))
				}
				out.exact.Observe(pi, v)
			}
		}
		return out
	})
	if perErr != nil {
		return nil, perErr
	}
	res := &ShannonResult{Probs: cfg.Probs, Config: cfg, Curves: map[string]*stats.Series{
		CurveShannonNonFading: stats.NewSeries(cfg.Probs),
		CurveShannonRayleigh:  stats.NewSeries(cfg.Probs),
	}}
	if cfg.Exact {
		res.Curves[CurveShannonExact] = stats.NewSeries(cfg.Probs)
	}
	for _, nr := range perNet {
		res.Curves[CurveShannonNonFading].Merge(nr.nf)
		res.Curves[CurveShannonRayleigh].Merge(nr.rl)
		if nr.exact != nil {
			res.Curves[CurveShannonExact].Merge(nr.exact)
		}
	}
	return res, nil
}
