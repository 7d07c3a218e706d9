// Command raysched reproduces the experiments of "Scheduling in Wireless
// Networks with Rayleigh-Fading Interference" (Dams, Hoefer, Kesselheim;
// SPAA 2012) and exposes the library's schedulers from the command line.
//
// Subcommands:
//
//	figure1    success-vs-probability curves (paper Figure 1)
//	figure2    no-regret learning curves (paper Figure 2; -learner exp3 for bandit feedback)
//	optimum    uniform-power optimum estimate (paper's 49.75 reference)
//	capacity   run the capacity algorithms on one network (random or -input file)
//	latency    compare the latency schedulers across both models
//	probe      exact Rayleigh success probabilities for one network
//	reduction  empirical Theorem-2 factor across network sizes
//	fading     Nakagami-m sweep from Rayleigh toward non-fading
//	topology   regular grid vs density-matched random deployments
//	shannon    total Shannon capacity vs transmission probability (-exact for quadrature)
//	baseline   conflict-graph scheduling vs SINR truth
//	cluster    shard figure1 across a rayschedd cluster, merge deterministically
//	version    print the release version
//
// Every subcommand takes -seed for deterministic reproduction; the curve
// commands accept -format csv|md|ascii|svg. Workloads generated by raygen
// can be loaded with -input where supported.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"slices"
	"sort"
	"syscall"
	"time"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/faults"
	"rayfade/internal/fsio"
	"rayfade/internal/netio"
	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/opt"
	"rayfade/internal/plot"
	"rayfade/internal/progress"
	"rayfade/internal/regret"
	"rayfade/internal/rng"
	"rayfade/internal/sim"
	"rayfade/internal/sinr"
	"rayfade/internal/stats"
	"rayfade/internal/transform"
	"rayfade/internal/version"
)

// progressInterval is how often -progress prints a status line to stderr.
const progressInterval = 2 * time.Second

// obsFlags are the observability and chaos flags shared by the experiment
// subcommands: -trace captures a Chrome trace-event file of the whole run,
// -log enables structured lifecycle logging on stderr, -pprof serves the
// runtime profiler while the experiment runs, and -faults arms the
// deterministic fault injector for resilience testing.
type obsFlags struct {
	trace     string
	logLevel  string
	pprofAddr string
	faultSpec string

	// log is the -log logger start built (nil without -log); the cluster
	// coordinator logs through it too.
	log *slog.Logger

	// bundles are worker trace bundles collected by the cluster coordinator
	// (addBundles); when any are present, finish writes one merged
	// cluster trace instead of a local-only trace.
	bundles []obs.TraceBundle
}

// addBundles registers worker trace bundles for the final trace write.
func (o *obsFlags) addBundles(bs ...obs.TraceBundle) {
	o.bundles = append(o.bundles, bs...)
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON file here (open in Perfetto)")
	fs.StringVar(&o.logLevel, "log", "", "structured run logs on stderr at this level: debug, info, warn, error")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address for the run's duration")
	fs.StringVar(&o.faultSpec, "faults", "", `inject deterministic faults, e.g. "seed=1,sim.replication=delay:0.1:5ms,fsio.write=error:0.05"`)
	return o
}

// traceRingCapacity is sized to keep every span of a large sweep: the
// default 4096-span ring would evict the early replications of a
// 40-network Figure-1 run before the trace is written.
const traceRingCapacity = 1 << 17

// start attaches the requested tracer to ctx, installs the logger and
// profiler, and returns the ctx to run the experiment under plus a finish
// function that writes the trace file and uninstalls the process globals.
// Call finish exactly once, after the experiment returns (on error too — a
// partial trace of a cancelled run is still worth keeping).
func (o *obsFlags) start(ctx context.Context) (context.Context, func() error, error) {
	ctx = obs.WithRunID(ctx, obs.NewRunID())
	if o.logLevel != "" {
		lvl, err := obs.ParseLevel(o.logLevel)
		if err != nil {
			return nil, nil, err
		}
		o.log = obs.NewLogger(os.Stderr, lvl, false)
		sim.SetLogger(o.log)
	}
	var tr *obs.Tracer
	if o.trace != "" {
		tr = obs.NewTracer(traceRingCapacity)
		ctx = obs.WithTracer(ctx, tr)
	}
	if o.pprofAddr != "" {
		ln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return nil, nil, fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "raysched: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil) // handlers registered by the blank pprof import
	}
	var inj *faults.Injector
	if o.faultSpec != "" {
		var err error
		inj, err = faults.Parse(o.faultSpec)
		if err != nil {
			return nil, nil, err
		}
		faults.SetDefault(inj)
		fmt.Fprintf(os.Stderr, "raysched: fault injection armed: %s\n", o.faultSpec)
	}
	finish := func() error {
		sim.SetLogger(nil)
		if inj != nil {
			faults.SetDefault(nil)
			if s := inj.Summary(); s != "" {
				fmt.Fprintf(os.Stderr, "raysched: faults fired: %s\n", s)
			}
		}
		if tr == nil {
			return nil
		}
		if len(o.bundles) > 0 {
			if err := obs.WriteMergedTraceFile(o.trace, tr, o.bundles); err != nil {
				return err
			}
			remote := 0
			for _, b := range o.bundles {
				remote += len(b.Spans)
			}
			fmt.Fprintf(os.Stderr, "raysched: wrote merged cluster trace to %s (%d local spans, %d worker spans from %d bundles)\n",
				o.trace, tr.Recorded(), remote, len(o.bundles))
			return nil
		}
		if err := tr.WriteTraceFile(o.trace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "raysched: wrote %d spans to %s\n", tr.Recorded(), o.trace)
		return nil
	}
	return ctx, finish, nil
}

// runExperiment is the run lifecycle every experiment subcommand shares:
// install the observability flags, run the experiment (reporting progress
// to stderr under label when prog is set), then write the trace and
// uninstall the process globals, on error too.
func runExperiment[C, R any](ctx context.Context, of *obsFlags, prog bool, label string,
	run func(context.Context, C) (R, error), cfg C) (R, error) {
	ctx, finish, err := of.start(ctx)
	if err != nil {
		var zero R
		return zero, err
	}
	var t *progress.Tracker // nil-safe: a nil tracker reports nothing
	if prog {
		t = progress.New(label, os.Stderr)
	}
	sim.SetProgress(t)
	t.Start(progressInterval)
	res, err := run(ctx, cfg)
	sim.SetProgress(nil)
	t.Stop() // prints the final status line before the results render
	if ferr := finish(); err == nil {
		err = ferr
	}
	return res, err
}

// checkFormat rejects a -format value writeCurves cannot render. Commands
// call it right after parsing, so a typo fails before anything runs.
func checkFormat(format string) error {
	switch format {
	case "csv", "md", "ascii", "svg":
		return nil
	}
	return fmt.Errorf("unknown -format %q: want csv, md, ascii or svg", format)
}

// chart labels a curve plot: x heads the csv and md x column, the rest
// title and label the svg.
type chart struct{ x, title, xlabel, ylabel string }

// writeCurves writes the named curves over xs to stdout in the given
// format, one of those checkFormat accepts.
func writeCurves(format string, c chart, xs []float64, names []string, curves map[string]*stats.Series) error {
	switch format {
	case "csv":
		return sim.WriteSeriesCSV(os.Stdout, c.x, xs, names, curves)
	case "md":
		return sim.MarkdownTable(os.Stdout, c.x, xs, names, curves)
	case "ascii":
		return sim.ASCIIChart(os.Stdout, xs, names, curves, 20)
	case "svg":
		ss, err := plot.FromSeries(xs, names, curves)
		if err != nil {
			return err
		}
		return plot.Chart{Title: c.title, XLabel: c.xlabel, YLabel: c.ylabel, Series: ss}.Render(os.Stdout)
	}
	return checkFormat(format)
}

// subcommand is one row of the table that drives both main's dispatch and
// the usage list.
type subcommand struct {
	name, summary string
	run           func(context.Context, []string) error // nil for help
}

var subcommands = []subcommand{
	{"figure1", "reproduce Figure 1 (success vs transmission probability)", cmdFigure1},
	{"figure2", "reproduce Figure 2 (no-regret learning over rounds)", cmdFigure2},
	{"optimum", "estimate the uniform-power optimum (paper: ~49.75)", cmdOptimum},
	{"capacity", "run capacity algorithms on one random network", cmdCapacity},
	{"latency", "run latency schedulers on one random network", cmdLatency},
	{"probe", "exact Rayleigh success probabilities for one network",
		func(_ context.Context, args []string) error { return cmdProbe(args) }},
	{"reduction", "empirical Theorem-2 factor across network sizes", cmdReduction},
	{"fading", "Nakagami-m sweep from Rayleigh toward non-fading", cmdFading},
	{"topology", "regular grid vs density-matched random topologies", cmdTopology},
	{"shannon", "total Shannon capacity vs transmission probability", cmdShannon},
	{"baseline", "conflict-graph scheduling vs SINR-aware scheduling", cmdBaseline},
	{"cluster", "distribute figure1 across rayschedd workers (byte-identical merge)", cmdCluster},
	{"version", "print the release version", func(context.Context, []string) error {
		fmt.Printf("raysched %s\n", version.Version)
		return nil
	}},
	{"help", "print this message", nil},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	switch name {
	case "-version", "--version":
		name = "version"
	case "-h", "--help":
		name = "help"
	}
	i := slices.IndexFunc(subcommands, func(sc subcommand) bool { return sc.name == name })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "raysched: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if subcommands[i].run == nil {
		usage()
		return
	}
	// Ctrl-C and SIGTERM cancel the context threaded into the experiment
	// loops, so long runs stop promptly instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := subcommands[i].run(ctx, os.Args[2:]); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "raysched: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "raysched:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: raysched <subcommand> [flags]\n\nsubcommands:\n")
	for _, sc := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintln(os.Stderr, "\nrun 'raysched <subcommand> -h' for flags; unknown subcommands exit 2")
}

func cmdFigure1(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figure1", flag.ExitOnError)
	networks := fs.Int("networks", 40, "number of random networks")
	links := fs.Int("links", 100, "links per network")
	txSeeds := fs.Int("txseeds", 25, "transmit-set draws per probability")
	fdSeeds := fs.Int("fadeseeds", 10, "fading draws per transmit set")
	points := fs.Int("points", 20, "probability grid points")
	seed := fs.Uint64("seed", 1, "master seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	format := fs.String("format", "md", "output format: csv, md, ascii, svg")
	topology := fs.String("topology", "uniform", "receiver deployment: uniform or cluster")
	prog := fs.Bool("progress", false, "report run progress to stderr")
	checkpoint := fs.String("checkpoint", "", "checkpoint file: completed networks are saved here and a rerun resumes from them")
	ckEvery := fs.Int("checkpoint-every", 1, "flush the checkpoint after this many completed networks")
	out := fs.String("out", "", "write CSV output atomically to this file instead of stdout (implies -format csv)")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFormat(*format); err != nil {
		return err
	}
	res, err := runExperiment(ctx, of, *prog, "figure1", sim.RunFigure1Ctx, sim.Figure1Config{
		Networks:        *networks,
		Links:           *links,
		TransmitSeeds:   *txSeeds,
		FadingSeeds:     *fdSeeds,
		Probs:           stats.Linspace(0.05, 1.0, *points),
		Seed:            *seed,
		Workers:         *workers,
		Topology:        *topology,
		Checkpoint:      *checkpoint,
		CheckpointEvery: *ckEvery,
	})
	if err != nil {
		return err
	}
	return renderFigure1(res, *format, *out)
}

// renderFigure1 writes a Figure-1 result in the requested format, or as CSV
// atomically to out when set. Shared by the single-node figure1 command and
// the cluster coordinator, so the two paths emit byte-identical artifacts
// from equal results by construction.
func renderFigure1(res *sim.Figure1Result, format, out string) error {
	names := res.CurveNames()
	if out != "" {
		return fsio.WriteAtomic(out, 0o644, func(w io.Writer) error {
			return sim.WriteSeriesCSV(w, "prob", res.Probs, names, res.Curves)
		})
	}
	err := writeCurves(format, chart{"prob", "Figure 1: successful transmissions vs transmission probability",
		"transmission probability q", "successful transmissions"}, res.Probs, names, res.Curves)
	if err != nil || format != "md" {
		return err
	}
	for _, name := range names {
		p, m, err := res.Peak(name)
		if err != nil {
			return err
		}
		fmt.Printf("peak %-22s q=%.3f mean=%.2f\n", name, p, m)
	}
	return nil
}

func cmdFigure2(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figure2", flag.ExitOnError)
	networks := fs.Int("networks", 10, "number of random networks")
	links := fs.Int("links", 200, "links per network")
	rounds := fs.Int("rounds", 100, "learning rounds")
	seed := fs.Uint64("seed", 2, "master seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	format := fs.String("format", "md", "output format: csv, md, ascii, svg")
	learner := fs.String("learner", "rwm", "online learner: rwm (full info) or exp3 (bandit)")
	prog := fs.Bool("progress", false, "report run progress to stderr")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFormat(*format); err != nil {
		return err
	}
	res, err := runExperiment(ctx, of, *prog, "figure2", sim.RunFigure2Ctx, sim.Figure2Config{
		Networks: *networks,
		Links:    *links,
		Rounds:   *rounds,
		Seed:     *seed,
		Workers:  *workers,
		Learner:  *learner,
	})
	if err != nil {
		return err
	}
	series := map[string]*stats.Series{
		"non-fading": res.NonFading,
		"rayleigh":   res.Rayleigh,
	}
	err = writeCurves(*format, chart{"round", "Figure 2: successful transmissions under no-regret learning",
		"round", "successful transmissions"}, res.Rounds, []string{"non-fading", "rayleigh"}, series)
	if err != nil || *format != "md" {
		return err
	}
	fmt.Printf("greedy capacity reference: %s\n", res.GreedyRef.Summarize())
	fmt.Printf("converged successes  non-fading: %s   rayleigh: %s\n",
		res.ConvergedNF.Summarize(), res.ConvergedRL.Summarize())
	fmt.Printf("max average regret   non-fading: %s   rayleigh: %s\n",
		res.RegretNF.Summarize(), res.RegretRL.Summarize())
	fmt.Printf("final mean send prob non-fading: %s   rayleigh: %s\n",
		res.FinalSendProbNF.Summarize(), res.FinalSendProbRL.Summarize())
	printLemma5 := func(label string, all []regret.Lemma5Stats) {
		var f, x stats.Running
		for _, s := range all {
			f.Add(s.F)
			x.Add(s.X)
		}
		fmt.Printf("lemma-5 %-11s F (senders/round) = %s   X (successes/round) = %s\n",
			label, f.Summarize(), x.Summarize())
	}
	printLemma5("non-fading:", res.Lemma5NF)
	printLemma5("rayleigh:", res.Lemma5RL)
	return nil
}

func cmdOptimum(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("optimum", flag.ExitOnError)
	networks := fs.Int("networks", 40, "number of random networks")
	links := fs.Int("links", 100, "links per network")
	restarts := fs.Int("restarts", 8, "local-search restarts")
	seed := fs.Uint64("seed", 3, "master seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	prog := fs.Bool("progress", false, "report run progress to stderr")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runExperiment(ctx, of, *prog, "optimum", sim.RunOptimumCtx, sim.OptimumConfig{
		Networks: *networks,
		Links:    *links,
		Search:   opt.LocalSearchConfig{Restarts: *restarts, SwapPasses: 30},
		Seed:     *seed,
		Workers:  *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("greedy capacity:        %s\n", res.Greedy.Summarize())
	fmt.Printf("local-search optimum:   %s\n", res.LocalSearch.Summarize())
	fmt.Printf("E[rayleigh successes]:  %s (Lemma-2 floor: optimum/e)\n", res.RayleighOfOptimum.Summarize())
	fmt.Println("(paper reports 49.75 on this workload)")
	return nil
}

// loadOrGenerate returns the network at -input, or a fresh Figure-1-style
// random network with the given size and seed when no input file is given.
func loadOrGenerate(input string, links int, src *rng.Source) (*network.Network, error) {
	if input != "" {
		return netio.LoadFile(input)
	}
	cfg := network.Figure1Config()
	cfg.N = links
	return network.Random(cfg, src)
}

func cmdCapacity(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("capacity", flag.ExitOnError)
	links := fs.Int("links", 100, "links in the random network")
	beta := fs.Float64("beta", 2.5, "SINR threshold")
	seed := fs.Uint64("seed", 4, "network seed")
	input := fs.String("input", "", "load the network from a raygen/netio JSON file")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// sets are the three schedules compared below, with their network.
	type sets struct {
		net        *network.Network
		m          *network.Matrix
		greedy, ls []int
		pc         capacity.PowerControlResult
	}
	res, err := runExperiment(ctx, of, false, "capacity", func(ctx context.Context, src *rng.Source) (*sets, error) {
		net, err := loadOrGenerate(*input, *links, src)
		if err != nil {
			return nil, err
		}
		s := &sets{net: net, m: net.Gains()}
		if s.greedy, err = capacity.GreedyAffectanceCtx(ctx, s.m, *beta, capacity.DefaultTau, capacity.LengthOrder(net)); err != nil {
			return nil, err
		}
		if s.pc, err = capacity.PowerControlGreedyCtx(ctx, net, *beta); err != nil {
			return nil, err
		}
		s.ls = opt.LocalSearch(s.m, *beta, opt.DefaultLocalSearch, src)
		return s, nil
	}, rng.New(*seed))
	if err != nil {
		return err
	}

	report := func(name string, set []int, fadeValue float64) {
		fmt.Printf("%-24s size=%3d  E[rayleigh successes]=%.2f (lemma-2 floor %.2f)\n",
			name, len(set), fadeValue, float64(len(set))*transform.LossFactor)
	}
	report("greedy uniform", res.greedy, fading.ExpectedBinaryValueOfSet(res.m, res.greedy, *beta))
	report("local search", res.ls, fading.ExpectedBinaryValueOfSet(res.m, res.ls, *beta))
	pcNet := res.pc.ApplyPowers(res.net)
	report("power control", res.pc.Set, fading.ExpectedBinaryValueOfSet(pcNet.Gains(), res.pc.Set, *beta))
	return nil
}

func cmdLatency(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("latency", flag.ExitOnError)
	networks := fs.Int("networks", 10, "number of random networks")
	links := fs.Int("links", 100, "links per network")
	beta := fs.Float64("beta", 2.5, "SINR threshold")
	prob := fs.Float64("prob", 0.1, "ALOHA transmission probability")
	seed := fs.Uint64("seed", 8, "master seed")
	trials := fs.Int("trials", 5, "stochastic trials per network")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	prog := fs.Bool("progress", false, "report run progress to stderr")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runExperiment(ctx, of, *prog, "latency", sim.RunLatencyCtx, sim.LatencyConfig{
		Networks:  *networks,
		Links:     *links,
		Trials:    *trials,
		Beta:      *beta,
		AlohaProb: *prob,
		Seed:      *seed,
		Workers:   *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %22s\n", "scheduler", "slots to serve all links")
	fmt.Printf("%-34s %22s\n", "repeated capacity (non-fading)", res.ScheduleLen.Summarize())
	fmt.Printf("%-34s %22s\n", "  replayed under rayleigh (4x)", res.ScheduleRayleigh.Summarize())
	fmt.Printf("%-34s %22s\n", fmt.Sprintf("ALOHA p=%.2f (non-fading)", *prob), res.AlohaNF.Summarize())
	fmt.Printf("%-34s %22s\n", fmt.Sprintf("ALOHA p=%.2f (rayleigh, 4x)", *prob), res.AlohaRL.Summarize())
	fmt.Printf("%-34s %22s\n", "backoff ALOHA (non-fading)", res.BackoffNF.Summarize())
	fmt.Printf("%-34s %22s\n", "backoff ALOHA (rayleigh, 4x)", res.BackoffRL.Summarize())
	if res.Incomplete > 0 {
		fmt.Printf("WARNING: %d runs hit their slot budget and are excluded\n", res.Incomplete)
	}
	return nil
}

func cmdShannon(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("shannon", flag.ExitOnError)
	networks := fs.Int("networks", 10, "number of random networks")
	links := fs.Int("links", 100, "links per network")
	seed := fs.Uint64("seed", 7, "master seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	format := fs.String("format", "md", "output format: csv, md, ascii, svg")
	exact := fs.Bool("exact", false, "add the closed-form quadrature curve")
	prog := fs.Bool("progress", false, "report run progress to stderr")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFormat(*format); err != nil {
		return err
	}
	res, err := runExperiment(ctx, of, *prog, "shannon", sim.RunShannonCtx, sim.ShannonConfig{
		Networks: *networks,
		Links:    *links,
		Seed:     *seed,
		Workers:  *workers,
		Exact:    *exact,
	})
	if err != nil {
		return err
	}
	names := []string{sim.CurveShannonNonFading, sim.CurveShannonRayleigh}
	if *exact {
		names = append(names, sim.CurveShannonExact)
	}
	return writeCurves(*format, chart{"prob", "Total Shannon capacity vs transmission probability",
		"transmission probability q", "Σ log(1+γ) [nats]"}, res.Probs, names, res.Curves)
}

func cmdReduction(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("reduction", flag.ExitOnError)
	networksPer := fs.Int("networks", 5, "networks per size")
	prob := fs.Float64("prob", 0.8, "Rayleigh transmission probability")
	samples := fs.Int("samples", 200, "Monte-Carlo samples per simulation level")
	seed := fs.Uint64("seed", 4, "master seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	prog := fs.Bool("progress", false, "report run progress to stderr")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runExperiment(ctx, of, *prog, "reduction", sim.RunReductionCtx, sim.ReductionConfig{
		NetworksPer:   *networksPer,
		Prob:          *prob,
		SamplesPerStp: *samples,
		Seed:          *seed,
		Workers:       *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%6s %10s %8s %22s\n", "n", "log*(n)", "levels", "rayleigh / best step")
	for _, p := range res.Points {
		fmt.Printf("%6d %10d %8d %22s\n", p.N, p.LogStar, p.Levels, p.Ratio.Summarize())
	}
	fmt.Println("Theorem 2 bounds the ratio by O(log* n); the measured values show the constant.")
	return nil
}

func cmdFading(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fading", flag.ExitOnError)
	networks := fs.Int("networks", 10, "number of random networks")
	links := fs.Int("links", 100, "links per network")
	prob := fs.Float64("prob", 0.5, "common transmission probability")
	seed := fs.Uint64("seed", 5, "master seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	prog := fs.Bool("progress", false, "report run progress to stderr")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runExperiment(ctx, of, *prog, "fading", sim.RunFadingSweepCtx, sim.FadingSweepConfig{
		Networks: *networks,
		Links:    *links,
		Prob:     *prob,
		Seed:     *seed,
		Workers:  *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%10s %22s\n", "shape m", "mean successes")
	for si, shape := range res.Shapes {
		marker := ""
		if si == res.RayleighShapeIndex() {
			marker = "   ← Rayleigh (paper's model)"
		}
		fmt.Printf("%10g %22s%s\n", shape, res.PerShape.Acc[si].Summarize(), marker)
	}
	fmt.Printf("%10s %22s\n", "non-fading", res.NonFading.Summarize())
	fmt.Printf("Rayleigh closed form (Theorem 1): %s\n", res.Rayleigh.Summarize())
	return nil
}

func cmdTopology(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("topology", flag.ExitOnError)
	side := fs.Int("side", 10, "grid side (side² links)")
	seed := fs.Uint64("seed", 6, "master seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	format := fs.String("format", "md", "output format: csv, md, ascii, svg")
	prog := fs.Bool("progress", false, "report run progress to stderr")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkFormat(*format); err != nil {
		return err
	}
	res, err := runExperiment(ctx, of, *prog, "topology", sim.RunTopologyCtx, sim.TopologyConfig{
		GridSide: *side,
		Seed:     *seed,
		Workers:  *workers,
	})
	if err != nil {
		return err
	}
	names := []string{
		sim.CurveGridNonFading, sim.CurveGridRayleigh,
		sim.CurveRandomNonFading, sim.CurveRandomRayleigh,
	}
	return writeCurves(*format, chart{"prob", "Regular grid vs density-matched random deployment",
		"transmission probability q", "successful transmissions"}, res.Probs, names, res.Curves)
}

func cmdBaseline(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("baseline", flag.ExitOnError)
	networks := fs.Int("networks", 10, "number of random networks")
	links := fs.Int("links", 100, "links per network")
	seed := fs.Uint64("seed", 9, "master seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	prog := fs.Bool("progress", false, "report run progress to stderr")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runExperiment(ctx, of, *prog, "baseline", sim.RunBaselineCtx, sim.BaselineConfig{
		Networks: *networks,
		Links:    *links,
		Seed:     *seed,
		Workers:  *workers,
	})
	if err != nil {
		return err
	}
	fmt.Println("capacity (single slot):")
	fmt.Printf("  %-34s %22s\n", "graph independent set size", res.GraphSetSize.Summarize())
	fmt.Printf("  %-34s %22s\n", "  of which SINR-valid", res.GraphSINRValid.Summarize())
	fmt.Printf("  %-34s %22s\n", "  E[rayleigh successes]", res.GraphRayleigh.Summarize())
	fmt.Printf("  %-34s %22s\n", "SINR greedy set size (all valid)", res.SINRSetSize.Summarize())
	fmt.Printf("  %-34s %22s\n", "  E[rayleigh successes]", res.SINRRayleigh.Summarize())
	fmt.Println("latency (serve all links):")
	fmt.Printf("  %-34s %22s\n", "graph coloring slots", res.GraphSlots.Summarize())
	fmt.Printf("  %-34s %22s\n", "  SINR violations in schedule", res.GraphViolations.Summarize())
	fmt.Printf("  %-34s %22s\n", "SINR repeated-capacity slots", res.SINRSlots.Summarize())
	fmt.Printf("  %-34s %22s\n", "  rayleigh replay (4x)", res.SINRRayleighSlots.Summarize())
	return nil
}

func cmdProbe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	links := fs.Int("links", 20, "links in the random network")
	beta := fs.Float64("beta", 2.5, "SINR threshold")
	prob := fs.Float64("prob", 0.5, "common transmission probability")
	seed := fs.Uint64("seed", 6, "network seed")
	input := fs.String("input", "", "load the network from a raygen/netio JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := loadOrGenerate(*input, *links, rng.New(*seed))
	if err != nil {
		return err
	}
	m := net.Gains()
	q := fading.UniformProbs(m.N, *prob)
	type row struct {
		link    int
		exact   float64
		lo, hi  float64
		nfValue float64
	}
	rows := make([]row, m.N)
	active := make([]bool, m.N)
	for i := range active {
		active[i] = true
	}
	nf := sinr.Values(m, active)
	for i := range rows {
		rows[i] = row{
			link:    i,
			exact:   fading.ExactSuccess(m, q, *beta, i),
			lo:      fading.LowerBound(m, q, *beta, i),
			hi:      fading.UpperBound(m, q, *beta, i),
			nfValue: nf[i],
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].exact > rows[b].exact })
	fmt.Printf("link   Q_i(exact)  lower     upper     gamma_nf(all active)\n")
	for _, r := range rows {
		fmt.Printf("%4d   %.4f      %.4f    %.4f    %.4f\n", r.link, r.exact, r.lo, r.hi, r.nfValue)
	}
	fmt.Printf("expected successes at q=%.2f: %.3f of %d links\n",
		*prob, fading.ExpectedSuccessesExact(m, q, *beta), m.N)
	return nil
}
