package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"rayfade/benchsuite/load"
	"rayfade/internal/obs"
	"rayfade/internal/sim"
	"rayfade/internal/stats"
)

// fig1Networks is the number of random networks one Figure-1 operation
// averages over. The paper averages 40; four keep one run near two seconds,
// so a run of the benchmark holds about ten of them.
const fig1Networks = 4

// fig1Config is the Figure-1 experiment of the batch workloads: the paper's
// settings (100 links, 25 transmit seeds, 10 fading seeds, 20 probability
// points, β 2.5, α 2.2, ν 4e-7, lengths in [20,40] on a 1000×1000 plane,
// power 2), every field explicit so replays need no defaults.
func fig1Config(seed uint64, networks, workers int) sim.Figure1Config {
	return sim.Figure1Config{
		Networks:      networks,
		Links:         links,
		TransmitSeeds: 25,
		FadingSeeds:   10,
		Probs:         stats.Linspace(0.05, 1.0, 20),
		Beta:          2.5,
		Alpha:         2.2,
		Noise:         4e-7,
		DMin:          20,
		DMax:          40,
		Side:          1000,
		Power:         2,
		Workers:       workers,
		Seed:          fig1Seed(seed),
		Topology:      "uniform",
	}
}

// fig1Seed is the experiment's master seed for a run seed; never 0, which
// the experiment would replace by its default.
func fig1Seed(seed uint64) uint64 { return streamSeed(seed, "fig1") | 1 }

// runFigure1CSV runs Figure 1 and renders its CSV, the artifact whose bytes
// must not depend on the worker count or on distribution.
func runFigure1CSV(ctx context.Context, cfg sim.Figure1Config) (*sim.Figure1Result, []byte, error) {
	res, err := sim.RunFigure1Ctx(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := sim.WriteSeriesCSV(&buf, "prob", res.Probs, res.CurveNames(), res.Curves); err != nil {
		return nil, nil, err
	}
	return res, buf.Bytes(), nil
}

// batchRuns repeats op until the budget is spent (at least three times),
// pausing (see report.pause) before the first operation and after each. It
// returns each operation's milliseconds divided by its correction factor,
// and the factors, for any other time op measured.
func batchRuns(ctx context.Context, rep *report, budget time.Duration, op func() (float64, error)) (times, factors []float64, err error) {
	rep.pause()
	start := time.Now()
	for len(times) < 3 || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		ms, err := op()
		if err != nil {
			return nil, nil, err
		}
		f := rep.pause()
		times = append(times, ms/f)
		factors = append(factors, f)
		fmt.Fprintf(os.Stderr, "benchsuite: operation %d: %.1f ms as measured, slowdown %.3f, %.1f ms corrected\n", len(times), ms, f, ms/f)
	}
	return times, factors, nil
}

// timeFigure1 runs Figure 1 and returns its CSV and its wall time in
// milliseconds.
func timeFigure1(ctx context.Context, cfg sim.Figure1Config) (*sim.Figure1Result, []byte, float64, error) {
	t := time.Now()
	res, csv, err := runFigure1CSV(ctx, cfg)
	return res, csv, since(t), err
}

// recordBatch sets the end-to-end latency and rate metrics of a batch
// workload from its operation times.
func recordBatch(rep *report, times []float64) {
	rep.set("p50_ms", load.Median(times))
	rep.set("max_rate", float64(len(times))/(sum(times)/1e3))
	rep.attempted += len(times)
}

// runFig1 measures Figure-1 runs at Workers=1; every run's CSV must be the
// first one's. The Workers=2 time is bimodal — it depends on whether the
// two rng.Sources in use share a cache line — so the traced run reports it
// per layer and checks its CSV against the Workers=1 CSV.
func runFig1(ctx context.Context, cfg runConfig, rep *report) error {
	// Three set-ups (batchRuns' minimum), each a one-network run.
	setup, _, err := batchRuns(ctx, rep, 0, func() (float64, error) {
		_, _, ms, err := timeFigure1(ctx, fig1Config(cfg.seed, 1, 1))
		return ms, err
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", load.Median(setup)/1e3)

	var want [sha256.Size]byte
	n := 0
	times, _, err := batchRuns(ctx, rep, cfg.budget(1), func() (float64, error) {
		_, csv, ms, err := timeFigure1(ctx, fig1Config(cfg.seed, fig1Networks, 1))
		if err != nil {
			return 0, err
		}
		if h := sha256.Sum256(csv); n == 0 {
			want = h
		} else if h != want {
			return 0, fmt.Errorf("fig1: run %d CSV differs from run 1", n+1)
		}
		n++
		return ms, nil
	})
	if err != nil {
		return err
	}
	recordBatch(rep, times)
	return nil
}

// spanStats is what one traced Figure-1 run's spans say, in milliseconds.
type spanStats struct {
	wall         float64
	replications []float64 // one per replication span
	fanout       float64
	workers      int
}

// scaled divides every time by f.
func (st spanStats) scaled(f float64) spanStats {
	out := st
	out.wall /= f
	out.fanout /= f
	out.replications = nil
	for _, r := range st.replications {
		out.replications = append(out.replications, r/f)
	}
	return out
}

// tracedFigure1 runs Figure 1 with a fresh process-default tracer and reads
// its replication and fan-out spans.
func tracedFigure1(ctx context.Context, cfg sim.Figure1Config, traceDir string) (*sim.Figure1Result, []byte, spanStats, error) {
	tr := obs.NewTracer(1 << 12)
	obs.SetDefault(tr)
	defer obs.SetDefault(nil)
	res, csv, wall, err := timeFigure1(ctx, cfg)
	st := spanStats{wall: wall}
	if err != nil {
		return nil, nil, st, err
	}
	for _, sp := range tr.Snapshot() {
		switch sp.Name {
		case "replication":
			st.replications = append(st.replications, ms(sp.Dur))
		case "parallel.fanout":
			st.fanout = ms(sp.Dur)
			for _, a := range sp.Attrs {
				if a.Key == "workers" {
					st.workers, _ = a.Value.(int)
				}
			}
		}
	}
	if len(st.replications) != cfg.Networks || st.workers == 0 {
		return nil, nil, st, fmt.Errorf("fig1: traced run recorded %d replication spans and %d workers, want %d replications",
			len(st.replications), st.workers, cfg.Networks)
	}
	if traceDir != "" {
		if err := tr.WriteTraceFile(fmt.Sprintf("%s/fig1-workers%d.trace.json", traceDir, cfg.Workers)); err != nil {
			return nil, nil, st, err
		}
	}
	return res, csv, st, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// traceFig1 attributes a Workers=1 Figure-1 run to its layers by replaying
// every replication through the public functions (network.Random, Gains,
// rng draws, sinr.ValuesInto, fading.CountSuccesses), checks the replay
// reproduces the run's curves exactly, and compares the replication spans
// at Workers=2 and Workers=1, checking the two CSVs are identical.
func traceFig1(ctx context.Context, cfg runConfig, rep *report) error {
	const repeats = 2
	c1 := fig1Config(cfg.seed, fig1Networks, 1)
	c2 := fig1Config(cfg.seed, fig1Networks, 2)
	topos, err := newTopologies(cfg.seed, "fig1/probe", 8)
	if err != nil {
		return err
	}
	expMS, err := probeUnitCosts(rep, topos, cfg.seed)
	if err != nil {
		return err
	}

	plain, _, err := batchRuns(ctx, rep, 0, func() (float64, error) {
		_, _, ms, err := timeFigure1(ctx, c1)
		return ms, err
	})
	if err != nil {
		return err
	}

	var (
		w1, w2         []spanStats
		res1           *sim.Figure1Result
		w1Reps, w2Reps []float64
		util           []float64
	)
	for i := 0; i < repeats; i++ {
		res, csv, st1, err := tracedFigure1(ctx, c1, cfg.traceDir)
		if err != nil {
			return err
		}
		st1 = st1.scaled(rep.pause())
		_, csv2, st2, err := tracedFigure1(ctx, c2, cfg.traceDir)
		if err != nil {
			return err
		}
		st2 = st2.scaled(rep.pause())
		if !bytes.Equal(csv, csv2) {
			return fmt.Errorf("fig1: the Workers=2 CSV differs from the Workers=1 CSV")
		}
		res1 = res
		w1, w2 = append(w1, st1), append(w2, st2)
		w1Reps, w2Reps = append(w1Reps, st1.replications...), append(w2Reps, st2.replications...)
		util = append(util, sum(st2.replications)/(float64(st2.workers)*st2.fanout))
		rep.attempted += 2
	}
	walls := func(sts []spanStats) []float64 {
		var out []float64
		for _, st := range sts {
			out = append(out, st.wall)
		}
		return out
	}
	w1Wall, w2Wall := load.Median(walls(w1)), load.Median(walls(w2))
	rep.set("trace_overhead_pct", 100*(w1Wall-load.Median(plain))/load.Median(plain))
	rep.set("sim.w2_speedup", w1Wall/w2Wall)
	rep.set("sim.rep_slowdown", load.Median(w2Reps)/load.Median(w1Reps))
	rep.set("sim.fanout_util", load.Median(util))
	fmt.Fprintf(os.Stderr, "benchsuite: fig1 Workers=1 %.0f ms, Workers=2 %.0f ms (replication %.0f ms vs %.0f ms)\n",
		w1Wall, w2Wall, load.Median(w2Reps), load.Median(w1Reps))

	// Replay every replication and merge in replication order, as the run
	// does; the merged curves must equal the run's bit for bit.
	total := newCosts()
	merged := map[string]*stats.Series{}
	for r := 0; r < c1.Networks; r++ {
		curves, c, err := replayFigure1(c1, r)
		if err != nil {
			return err
		}
		total.add(c)
		for name, s := range curves {
			if merged[name] == nil {
				merged[name] = stats.NewSeries(c1.Probs)
			}
			merged[name].Merge(s)
		}
	}
	total = total.scaled(1 / rep.pause())
	// JSON carries every float64 bit for bit.
	got, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	if exp, err := json.Marshal(res1.Curves); err != nil {
		return err
	} else if !bytes.Equal(got, exp) {
		rep.problem("fig1: the replay of the replications does not reproduce the run's curves")
	}
	rep.set("rng.exp_draws", total.draws)
	rep.set("fading.calls", total.calls)
	total = splitDraws(total, expMS)
	a := attribution{workload: "fig1"}
	for _, st := range w1 {
		layers := map[string]float64{"sim": st.wall - sum(st.replications)}
		for k, v := range total.layer {
			layers[k] = v
		}
		a.add(layers, st.wall)
	}
	a.record(rep, os.Stderr)
	return nil
}
