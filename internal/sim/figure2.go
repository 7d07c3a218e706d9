package sim

import (
	"context"
	"fmt"

	"rayfade/internal/capacity"
	"rayfade/internal/geom"
	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/regret"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
)

// Figure2Config parameterizes the Figure-2 experiment: per-round successful
// transmissions under no-regret (RWM) learning, in both interference models.
// Zero values default to the paper's settings.
type Figure2Config struct {
	Networks int     // random networks to average over
	Links    int     // links per network (paper: 200)
	Rounds   int     // learning rounds (paper shows ~100)
	Beta     float64 // SINR threshold (paper: 0.5)
	Alpha    float64 // path-loss exponent (paper: 2.1)
	Noise    float64 // ambient noise (paper: 0) — kept explicit, no default override
	DMin     float64 // minimum link length (paper: 0, open bound)
	DMax     float64 // maximum link length (paper: 100)
	Side     float64 // deployment square side (paper: 1000)
	Power    float64 // uniform power (paper: 2)
	Workers  int     // parallel workers (≤0: GOMAXPROCS)
	Seed     uint64  // master seed
	// Learner selects the online algorithm: "rwm" (paper's full-information
	// Randomized Weighted Majority, the default) or "exp3" (bandit
	// feedback). Exp3Gamma sets the exploration rate (default 0.1).
	Learner   string
	Exp3Gamma float64
}

func (c Figure2Config) withDefaults() Figure2Config {
	if c.Networks == 0 {
		c.Networks = 10
	}
	if c.Links == 0 {
		c.Links = 200
	}
	if c.Rounds == 0 {
		c.Rounds = 100
	}
	if c.Beta == 0 {
		c.Beta = 0.5
	}
	if c.Alpha == 0 {
		c.Alpha = 2.1
	}
	if c.DMax == 0 {
		c.DMax = 100
	}
	if c.Side == 0 {
		c.Side = 1000
	}
	if c.Power == 0 {
		c.Power = 2
	}
	if c.Seed == 0 {
		c.Seed = 2
	}
	if c.Learner == "" {
		c.Learner = "rwm"
	}
	if c.Exp3Gamma == 0 {
		c.Exp3Gamma = 0.1
	}
	return c
}

// newGame builds a game with the configured learner family.
func (c Figure2Config) newGame(m *network.Matrix, model regret.Model, src *rng.Source) *regret.Game {
	switch c.Learner {
	case "rwm":
		return regret.NewGame(m, c.Beta, model, src)
	case "exp3":
		learners := make([]regret.Learner, m.N)
		for i := range learners {
			learners[i] = regret.NewExp3(c.Exp3Gamma)
		}
		return regret.NewGameWithLearners(m, c.Beta, model, learners, src)
	default:
		panic(fmt.Sprintf("sim: unknown learner %q (want rwm or exp3)", c.Learner))
	}
}

// Figure2Result carries the two per-round success series plus reference
// levels: the greedy non-fading capacity (a lower bound on the optimum) and
// the measured maximum average regret.
type Figure2Result struct {
	Rounds      []float64
	NonFading   *stats.Series
	Rayleigh    *stats.Series
	GreedyRef   stats.Running // greedy capacity per network
	RegretNF    stats.Running // max average regret per network, non-fading
	RegretRL    stats.Running // max average regret per network, Rayleigh
	ConvergedNF stats.Running // trailing-half average successes, non-fading
	ConvergedRL stats.Running // trailing-half average successes, Rayleigh
	// FinalSendProbNF/RL are the population-mean send probabilities at the
	// last round — they show the learners splitting into persistent
	// senders and silenced links.
	FinalSendProbNF stats.Running
	FinalSendProbRL stats.Running
	Config          Figure2Config
	Lemma5NF        []regret.Lemma5Stats
	Lemma5RL        []regret.Lemma5Stats
}

// RunFigure2Ctx reproduces Figure 2: on each random network, n RWM learners
// play for the configured number of rounds in the non-fading model and —
// with independent randomness — in the Rayleigh model; the per-round
// success counts are averaged across networks. It returns nil and ctx.Err()
// when the context is cancelled before the run completes.
func RunFigure2Ctx(ctx context.Context, cfg Figure2Config) (*Figure2Result, error) {
	cfg = cfg.withDefaults()
	ctx, finish := beginExperiment(ctx, "sim.figure2",
		"networks", cfg.Networks, "links", cfg.Links, "rounds", cfg.Rounds,
		"learner", cfg.Learner, "seed", cfg.Seed)
	defer finish()
	rounds := make([]float64, cfg.Rounds)
	for t := range rounds {
		rounds[t] = float64(t + 1)
	}

	type netResult struct {
		nf, rl     *stats.Series
		greedy     float64
		regNF      float64
		regRL      float64
		convNF     float64
		convRL     float64
		sendNF     float64
		sendRL     float64
		l5NF, l5RL regret.Lemma5Stats
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
			panic(fmt.Sprintf("sim: figure 2 network generation: %v", err))
		}
		m := net.Gains()
		greedy, _ := capacity.GreedyAffectanceCtx(ctx, m, cfg.Beta, capacity.DefaultTau, capacity.LengthOrder(net)) // fails only on cancellation, which the fan-out reports
		out := netResult{
			nf:     stats.NewSeries(rounds),
			rl:     stats.NewSeries(rounds),
			greedy: float64(len(greedy)),
		}
		histNF := cfg.newGame(m, regret.NonFading, src.Split()).Run(cfg.Rounds)
		histRL := cfg.newGame(m, regret.Rayleigh, src.Split()).Run(cfg.Rounds)
		tickRealizations(cfg.Rounds) // one Rayleigh realization per learning round
		for t, s := range histNF.SuccessSeries() {
			out.nf.Observe(t, float64(s))
		}
		for t, s := range histRL.SuccessSeries() {
			out.rl.Observe(t, float64(s))
		}
		out.regNF = histNF.MaxAverageRegret()
		out.regRL = histRL.MaxAverageRegret()
		out.convNF = histNF.AverageSuccesses(cfg.Rounds / 2)
		out.convRL = histRL.AverageSuccesses(cfg.Rounds / 2)
		out.l5NF = histNF.Lemma5()
		out.l5RL = histRL.Lemma5()
		out.sendNF = histNF.Rounds[len(histNF.Rounds)-1].AvgSendProb
		out.sendRL = histRL.Rounds[len(histRL.Rounds)-1].AvgSendProb
		return out
	})
	if perErr != nil {
		return nil, perErr
	}

	_, mergeSpan := obs.Start(ctx, "merge")
	defer mergeSpan.End()
	res := &Figure2Result{
		Rounds:    rounds,
		NonFading: stats.NewSeries(rounds),
		Rayleigh:  stats.NewSeries(rounds),
		Config:    cfg,
	}
	for _, nr := range perNet {
		res.NonFading.Merge(nr.nf)
		res.Rayleigh.Merge(nr.rl)
		res.GreedyRef.Add(nr.greedy)
		res.RegretNF.Add(nr.regNF)
		res.RegretRL.Add(nr.regRL)
		res.ConvergedNF.Add(nr.convNF)
		res.ConvergedRL.Add(nr.convRL)
		res.FinalSendProbNF.Add(nr.sendNF)
		res.FinalSendProbRL.Add(nr.sendRL)
		res.Lemma5NF = append(res.Lemma5NF, nr.l5NF)
		res.Lemma5RL = append(res.Lemma5RL, nr.l5RL)
	}
	return res, nil
}
