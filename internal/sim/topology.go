package sim

import (
	"context"
	"fmt"

	"rayfade/internal/fading"
	"rayfade/internal/geom"
	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/stats"
)

// TopologyConfig parameterizes the regular-vs-random topology comparison.
// The throughput-of-regular-networks line of work the paper builds on (Liu
// and Haenggi's fading analysis of square/random topologies) asks how much
// of the behaviour is an artifact of random placement; this experiment puts
// a square grid and a density-matched random network side by side in both
// interference models.
type TopologyConfig struct {
	GridSide      int     // grid is GridSide × GridSide links
	LinkLen       float64 // sender-receiver distance (both topologies)
	Spacing       float64 // grid spacing; random area matches the density
	TransmitSeeds int
	FadingSeeds   int
	Probs         []float64
	Beta          float64
	Alpha         float64
	Noise         float64
	Power         float64
	RandomNets    int // random networks to average over
	Workers       int
	Seed          uint64
}

func (c TopologyConfig) withDefaults() TopologyConfig {
	if c.GridSide == 0 {
		c.GridSide = 10
	}
	if c.LinkLen == 0 {
		c.LinkLen = 30
	}
	if c.Spacing == 0 {
		c.Spacing = 100
	}
	if c.TransmitSeeds == 0 {
		c.TransmitSeeds = 15
	}
	if c.FadingSeeds == 0 {
		c.FadingSeeds = 5
	}
	if len(c.Probs) == 0 {
		c.Probs = stats.Linspace(0.1, 1.0, 10)
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
	if c.Power == 0 {
		c.Power = 2
	}
	if c.RandomNets == 0 {
		c.RandomNets = 10
	}
	if c.Seed == 0 {
		c.Seed = 6
	}
	return c
}

// Topology comparison curve keys.
const (
	CurveGridNonFading   = "grid/non-fading"
	CurveGridRayleigh    = "grid/rayleigh"
	CurveRandomNonFading = "random/non-fading"
	CurveRandomRayleigh  = "random/rayleigh"
)

// TopologyResult carries the four curves over the probability grid.
type TopologyResult struct {
	Probs  []float64
	Curves map[string]*stats.Series
	Config TopologyConfig
}

// RunTopologyCtx measures success-vs-probability curves on the
// deterministic grid and on density-matched random networks, in both
// models. It returns nil and ctx.Err() when the context is cancelled before
// the run completes.
func RunTopologyCtx(ctx context.Context, cfg TopologyConfig) (*TopologyResult, error) {
	cfg = cfg.withDefaults()
	ctx, finish := beginExperiment(ctx, "sim.topology",
		"grid_side", cfg.GridSide, "random_nets", cfg.RandomNets, "seed", cfg.Seed)
	defer finish()
	res := &TopologyResult{Probs: cfg.Probs, Config: cfg, Curves: map[string]*stats.Series{
		CurveGridNonFading:   stats.NewSeries(cfg.Probs),
		CurveGridRayleigh:    stats.NewSeries(cfg.Probs),
		CurveRandomNonFading: stats.NewSeries(cfg.Probs),
		CurveRandomRayleigh:  stats.NewSeries(cfg.Probs),
	}}

	// Grid: one deterministic topology, averaged over transmit draws.
	_, gridSpan := obs.Start(ctx, "grid")
	grid, err := network.Grid(cfg.GridSide, cfg.GridSide, cfg.Spacing, cfg.LinkLen,
		cfg.Alpha, cfg.Noise, network.UniformPower{P: cfg.Power})
	if err != nil {
		panic(fmt.Sprintf("sim: topology grid: %v", err))
	}
	gm := grid.Gains()
	gridSrc := rng.New(cfg.Seed ^ 0x9e3779b9)
	observeCurves(res.Curves[CurveGridNonFading], res.Curves[CurveGridRayleigh],
		gm, cfg.Probs, cfg.TransmitSeeds, cfg.FadingSeeds, cfg.Beta, gridSrc)
	gridSpan.End()

	// Random: density-matched — same number of links on the same area.
	ctx, randomSpan := obs.Start(ctx, "random")
	defer randomSpan.End()
	n := cfg.GridSide * cfg.GridSide
	area := float64(cfg.GridSide) * cfg.Spacing
	type netSeries struct{ nf, rl *stats.Series }
	base := rng.New(cfg.Seed)
	perNet, perErr := ParallelCtx(ctx, cfg.RandomNets, cfg.Workers, base, func(_ context.Context, rep int, src *rng.Source) netSeries {
		netCfg := network.Config{
			N:     n,
			Area:  geom.Square(area),
			DMin:  cfg.LinkLen * 0.999,
			DMax:  cfg.LinkLen,
			Alpha: cfg.Alpha,
			Noise: cfg.Noise,
			Power: network.UniformPower{P: cfg.Power},
		}
		net, err := network.Random(netCfg, src)
		if err != nil {
			panic(fmt.Sprintf("sim: topology random network: %v", err))
		}
		out := netSeries{nf: stats.NewSeries(cfg.Probs), rl: stats.NewSeries(cfg.Probs)}
		observeCurves(out.nf, out.rl, net.Gains(), cfg.Probs, cfg.TransmitSeeds, cfg.FadingSeeds, cfg.Beta, src)
		return out
	})
	if perErr != nil {
		return nil, perErr
	}
	for _, ns := range perNet {
		res.Curves[CurveRandomNonFading].Merge(ns.nf)
		res.Curves[CurveRandomRayleigh].Merge(ns.rl)
	}
	return res, nil
}

// observeCurves fills a non-fading and a Rayleigh series for one matrix: per
// probability p, transmitSeeds transmit sets of Bernoulli(p) senders, each
// counted once without fading and fadingSeeds times with it, at threshold
// beta. One set of scratch buffers and one Counter serve every draw; each
// transmit set is listed once for its non-fading count and prepared on the
// Counter once for its fadingSeeds counts.
func observeCurves(nf, rl *stats.Series, m *network.Matrix, probs []float64, transmitSeeds, fadingSeeds int, beta float64, src *rng.Source) {
	active := make([]bool, m.N)
	idx := make([]int, 0, m.N)
	counter := fading.NewCounter(m)
	for pi, p := range probs {
		for ts := 0; ts < transmitSeeds; ts++ {
			for i := range active {
				active[i] = src.Bernoulli(p)
			}
			idx = sinr.ActiveList(active, idx)
			nf.Observe(pi, float64(sinr.CountSuccesses(m, idx, beta)))
			counter.Prepare(active)
			for fs := 0; fs < fadingSeeds; fs++ {
				rl.Observe(pi, float64(counter.Realize(beta, src, nil)))
			}
			tickRealizations(fadingSeeds)
		}
	}
}
