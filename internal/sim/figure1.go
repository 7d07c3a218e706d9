package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"rayfade/internal/fading"
	"rayfade/internal/geom"
	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
)

// Figure1Config parameterizes the Figure-1 experiment: the number of
// successful transmissions as a function of a common transmission
// probability, under {uniform, square-root} power × {non-fading, Rayleigh}
// model. Zero values default to the paper's settings.
type Figure1Config struct {
	Networks      int       // random networks to average over (paper: 40)
	Links         int       // links per network (paper: 100)
	TransmitSeeds int       // transmit-set draws per network & probability (paper: 25)
	FadingSeeds   int       // fading draws per transmit set (paper: 10)
	Probs         []float64 // transmission probability grid
	Beta          float64   // SINR threshold (paper: 2.5)
	Alpha         float64   // path-loss exponent (paper: 2.2)
	Noise         float64   // ambient noise (paper: 4e-7)
	DMin, DMax    float64   // link length range (paper: [20,40])
	Side          float64   // deployment square side (paper: 1000)
	Power         float64   // uniform power / sqrt scale (paper: 2)
	Workers       int       // parallel workers (≤0: GOMAXPROCS)
	Seed          uint64    // master seed
	// Topology selects the receiver deployment: "uniform" (the paper's
	// generator, default) or "cluster" (Thomas-process-like clusters) — a
	// robustness variant probing whether the Figure-1 shape depends on
	// uniform placement.
	Topology string
	// Checkpoint, when non-empty, is a file path where completed
	// per-network replications are persisted (crash-safe, atomic); an
	// existing compatible checkpoint resumes the run from whatever it
	// holds. It does not influence the computed results — a resumed run is
	// byte-identical to an uninterrupted one.
	Checkpoint string
	// CheckpointEvery is the flush interval in completed replications
	// (≤0: after every replication).
	CheckpointEvery int
}

// withDefaults fills zero fields with the paper's parameters.
func (c Figure1Config) withDefaults() Figure1Config {
	if c.Networks == 0 {
		c.Networks = 40
	}
	if c.Links == 0 {
		c.Links = 100
	}
	if c.TransmitSeeds == 0 {
		c.TransmitSeeds = 25
	}
	if c.FadingSeeds == 0 {
		c.FadingSeeds = 10
	}
	if len(c.Probs) == 0 {
		c.Probs = stats.Linspace(0.05, 1.0, 20)
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
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Topology == "" {
		c.Topology = "uniform"
	}
	return c
}

// drawNetwork realizes one network of the configured topology.
func (c Figure1Config) drawNetwork(src *rng.Source) (*network.Network, error) {
	base := network.Config{
		N:     c.Links,
		Area:  geom.Square(c.Side),
		DMin:  c.DMin,
		DMax:  c.DMax,
		Alpha: c.Alpha,
		Noise: c.Noise,
	}
	switch c.Topology {
	case "uniform":
		return network.Random(base, src)
	case "cluster":
		// Clusters of ~20 receivers with a spread comparable to a few
		// link lengths: locally dense, globally sparse.
		clusters := c.Links / 20
		if clusters < 2 {
			clusters = 2
		}
		perChild := (c.Links + clusters - 1) / clusters
		net, err := network.RandomClustered(network.ClusterConfig{
			Clusters: clusters,
			PerChild: perChild,
			Spread:   2 * c.DMax,
			Base:     base,
		}, src)
		if err != nil {
			return nil, err
		}
		// Rounding may overshoot; trim to the requested link count so the
		// curves stay comparable across topologies.
		net.Links = net.Links[:c.Links]
		return net, nil
	default:
		return nil, fmt.Errorf("sim: unknown topology %q (want uniform or cluster)", c.Topology)
	}
}

// Figure-1 curve identifiers, matching the four curves of the paper's plot.
const (
	CurveUniformNonFading = "uniform/non-fading"
	CurveUniformRayleigh  = "uniform/rayleigh"
	CurveSqrtNonFading    = "sqrt/non-fading"
	CurveSqrtRayleigh     = "sqrt/rayleigh"
)

// ExperimentFigure1 is the experiment name Figure-1 checkpoints and shards
// carry; a coordinator and its workers must agree on it.
const ExperimentFigure1 = "figure1"

// identityKey returns the determinism-relevant subset of the config — the
// checkpoint/shard identity. Execution knobs (Workers, the checkpoint path)
// are deliberately excluded so a resume or a re-shard may change them.
// Callers pass a defaults-applied config, so equal effective runs hash
// equally however sparsely they were specified.
func (c Figure1Config) identityKey() any {
	return struct {
		Networks, Links, TransmitSeeds, FadingSeeds int
		Probs                                       []float64
		Beta, Alpha, Noise, DMin, DMax, Side, Power float64
		Seed                                        uint64
		Topology                                    string
	}{c.Networks, c.Links, c.TransmitSeeds, c.FadingSeeds, c.Probs,
		c.Beta, c.Alpha, c.Noise, c.DMin, c.DMax, c.Side, c.Power,
		c.Seed, c.Topology}
}

// Figure1ConfigSHA returns the run-identity hash of cfg — the value a
// coordinator checks shard documents against and stores in the merged
// checkpoint. Defaults are applied first, matching what workers compute.
func Figure1ConfigSHA(cfg Figure1Config) (string, error) {
	return ConfigHash(cfg.withDefaults().identityKey())
}

// Figure1Result carries the four success curves over the probability grid.
type Figure1Result struct {
	Probs  []float64
	Curves map[string]*stats.Series
	Config Figure1Config
}

// netResult is one replication's contribution: the four per-probability
// curves measured on a single random network.
type netResult struct {
	curves map[string]*stats.Series
}

// figure1Codec returns the encode/decode pair that round-trips a netResult
// through JSON exactly (float64 survives encoding/json bit-for-bit) — the
// representation shared by checkpoints and shard documents.
func figure1Codec() (func(netResult) ([]byte, error), func([]byte) (netResult, error)) {
	encode := func(nr netResult) ([]byte, error) { return json.Marshal(nr.curves) }
	decode := func(data []byte) (netResult, error) {
		var curves map[string]*stats.Series
		if err := json.Unmarshal(data, &curves); err != nil {
			return netResult{}, err
		}
		return netResult{curves: curves}, nil
	}
	return encode, decode
}

// replicationBody returns the Figure-1 per-network replication function,
// shared verbatim by the full run, checkpoint resume, and shard execution —
// one body, so the three paths cannot drift apart. The receiver must be
// defaults-applied.
func (cfg Figure1Config) replicationBody() func(rep int, src *rng.Source) netResult {
	// Fixed order: iterating a map here would consume the replication's
	// RNG stream in a map-iteration-dependent order and break determinism.
	powers := []struct {
		name string
		pa   network.PowerAssignment
	}{
		{"uniform", network.UniformPower{P: cfg.Power}},
		{"sqrt", network.SquareRootPower{Scale: cfg.Power, Alpha: cfg.Alpha}},
	}
	return func(rep int, src *rng.Source) netResult {
		out := netResult{curves: map[string]*stats.Series{
			CurveUniformNonFading: stats.NewSeries(cfg.Probs),
			CurveUniformRayleigh:  stats.NewSeries(cfg.Probs),
			CurveSqrtNonFading:    stats.NewSeries(cfg.Probs),
			CurveSqrtRayleigh:     stats.NewSeries(cfg.Probs),
		}}
		net, err := cfg.drawNetwork(src)
		if err != nil {
			panic(fmt.Sprintf("sim: figure 1 network generation: %v", err))
		}
		// One set of scratch buffers per replication, and one Counter per
		// gain matrix: the kernels below are allocation-free, so the inner
		// loops touch the heap not at all.
		active := make([]bool, cfg.Links)
		vals := make([]float64, cfg.Links)
		for _, pw := range powers {
			m := net.Clone().ApplyPower(pw.pa).Gains()
			counter := fading.NewCounter(m)
			nfKey, rlKey := pw.name+"/non-fading", pw.name+"/rayleigh"
			for pi, p := range cfg.Probs {
				q := fading.UniformProbs(m.N, p)
				for ts := 0; ts < cfg.TransmitSeeds; ts++ {
					for i := range active {
						active[i] = src.Bernoulli(q[i])
					}
					nf := countNonFadingInto(m, active, cfg.Beta, vals)
					out.curves[nfKey].Observe(pi, float64(nf))
					for fs := 0; fs < cfg.FadingSeeds; fs++ {
						rl := counter.Count(active, cfg.Beta, src, nil)
						out.curves[rlKey].Observe(pi, float64(rl))
					}
					tickRealizations(cfg.FadingSeeds)
				}
			}
		}
		return out
	}
}

// RunFigure1 reproduces Figure 1: for each random network, each power
// assignment, and each transmission probability, it draws transmit sets and
// counts successes in the non-fading model (per transmit seed) and in the
// Rayleigh model (per transmit seed × fading seed).
func RunFigure1(cfg Figure1Config) *Figure1Result {
	res, _ := RunFigure1Ctx(context.Background(), cfg)
	return res
}

// RunFigure1ShardCtx computes only replications [lo, hi) of the Figure-1
// experiment and returns them in the shard wire format. The per-replication
// RNG streams are split exactly as RunFigure1Ctx splits them, so shard
// results are bit-identical to the corresponding slice of a single-node run;
// a coordinator merges shards covering [0, Networks) into a checkpoint the
// single-node pipeline replays byte-identically. Worker parallelism within
// the shard follows cfg.Workers.
func RunFigure1ShardCtx(ctx context.Context, cfg Figure1Config, lo, hi int) (*Shard, error) {
	cfg = cfg.withDefaults()
	if lo < 0 || hi > cfg.Networks || lo >= hi {
		return nil, fmt.Errorf("sim: figure 1 shard range [%d,%d) outside [0,%d)", lo, hi, cfg.Networks)
	}
	sha, err := ConfigHash(cfg.identityKey())
	if err != nil {
		return nil, err
	}
	ctx, finish := beginExperiment(ctx, "sim.figure1.shard",
		"lo", lo, "hi", hi, "networks", cfg.Networks, "links", cfg.Links,
		"topology", cfg.Topology, "seed", cfg.Seed)
	defer finish()
	out, err := ParallelShardCtx(ctx, cfg.Networks, lo, hi, cfg.Workers, rng.New(cfg.Seed), cfg.replicationBody())
	if err != nil {
		return nil, err
	}
	encode, _ := figure1Codec()
	results := make(map[int]json.RawMessage, hi-lo)
	for i, nr := range out {
		data, err := encode(nr)
		if err != nil {
			return nil, fmt.Errorf("sim: encode shard replication %d: %w", lo+i, err)
		}
		results[lo+i] = data
	}
	return &Shard{
		Experiment: ExperimentFigure1,
		ConfigSHA:  sha,
		Reps:       cfg.Networks,
		Lo:         lo,
		Hi:         hi,
		Results:    results,
	}, nil
}

// RunFigure1Ctx is RunFigure1 with cooperative cancellation; it returns nil
// and ctx.Err() when the context is cancelled before the run completes.
func RunFigure1Ctx(ctx context.Context, cfg Figure1Config) (*Figure1Result, error) {
	cfg = cfg.withDefaults()
	ctx, finish := beginExperiment(ctx, "sim.figure1",
		"networks", cfg.Networks, "links", cfg.Links, "topology", cfg.Topology,
		"transmit_seeds", cfg.TransmitSeeds, "fading_seeds", cfg.FadingSeeds, "seed", cfg.Seed)
	defer finish()
	var ck *Checkpoint
	if cfg.Checkpoint != "" {
		var err error
		ck, err = OpenCheckpoint(cfg.Checkpoint, ExperimentFigure1, cfg.identityKey(), cfg.Networks, cfg.CheckpointEvery)
		if err != nil {
			return nil, err
		}
		if n := ck.Restored(); n > 0 {
			activeLogger().Info("sim.figure1 resuming from checkpoint",
				"path", cfg.Checkpoint, "restored", n, "total", cfg.Networks)
		}
	}
	encode, decode := figure1Codec()
	base := rng.New(cfg.Seed)
	perNet, perErr := ParallelCheckpointCtx(ctx, cfg.Networks, cfg.Workers, base, ck, encode, decode, cfg.replicationBody())
	if perErr != nil {
		return nil, perErr
	}

	_, mergeSpan := obs.Start(ctx, "merge")
	res := &Figure1Result{Probs: cfg.Probs, Config: cfg, Curves: map[string]*stats.Series{
		CurveUniformNonFading: stats.NewSeries(cfg.Probs),
		CurveUniformRayleigh:  stats.NewSeries(cfg.Probs),
		CurveSqrtNonFading:    stats.NewSeries(cfg.Probs),
		CurveSqrtRayleigh:     stats.NewSeries(cfg.Probs),
	}}
	for _, nr := range perNet {
		for key, series := range nr.curves {
			res.Curves[key].Merge(series)
		}
	}
	mergeSpan.End()
	return res, nil
}

// CurveNames returns the curve keys in stable presentation order.
func (r *Figure1Result) CurveNames() []string {
	names := make([]string, 0, len(r.Curves))
	for k := range r.Curves {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Peak returns, for a curve, the probability with the highest mean success
// count and that mean. It errors on an unknown curve name and on a curve
// with no observations (where ArgmaxMean has no well-defined index).
func (r *Figure1Result) Peak(curve string) (prob, mean float64, err error) {
	s, ok := r.Curves[curve]
	if !ok {
		return 0, 0, fmt.Errorf("sim: unknown curve %q", curve)
	}
	i := s.ArgmaxMean()
	if i < 0 {
		return 0, 0, fmt.Errorf("sim: curve %q has no observations", curve)
	}
	return r.Probs[i], s.Acc[i].Mean(), nil
}
