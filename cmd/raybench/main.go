// Command raybench is the repo's reproducible performance and determinism
// harness. It runs a curated suite of end-to-end benchmark scenarios over
// the hot paths (fading sample kernels, SINR aggregation, one-shot capacity
// scheduling, latency minimization, the Lemma-2 transform, sim.ParallelCtx
// scaling, and rayschedd request throughput), writes the measurements to a
// schema-versioned BENCH_<label>.json, compares two such reports with a
// noise threshold, and maintains the golden-determinism manifest of every
// sim experiment's fixed-seed output.
//
// Subcommands:
//
//	run      measure the scenario suite and write BENCH_<label>.json
//	compare  diff two BENCH files; exits 1 on regressions beyond the threshold
//	golden   recompute fixed-seed experiment hashes; -check verifies results/golden.json
//	version  print the release version
//
// Typical workflows:
//
//	raybench run -quick -label pr                      # PR smoke measurement
//	raybench compare BENCH_seed.json BENCH_pr.json -threshold 0.40
//	raybench golden -check                             # determinism gate
//	raybench golden -out results/golden.json           # regenerate after an intentional change
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rayfade/internal/benchio"
	"rayfade/internal/faults"
	"rayfade/internal/obs"
	"rayfade/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(ctx, os.Args[2:])
	case "scaling":
		err = cmdScaling(ctx, os.Args[2:])
	case "throughput":
		err = cmdThroughput(ctx, os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "golden":
		err = cmdGolden(ctx, os.Args[2:])
	case "tracecheck":
		err = cmdTraceCheck(os.Args[2:])
	case "version", "-version", "--version":
		fmt.Printf("raybench %s\n", version.Version)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "raybench: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "raybench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "raybench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: raybench <subcommand> [flags]

subcommands:
  run         measure the benchmark suite and write BENCH_<label>.json
  scaling     measure the worker-scaling scenarios and gate on the speedup
  throughput  measure batch vs per-request estimate throughput and gate on the ratio
  compare     compare two BENCH files; exit 1 on regressions beyond the threshold
  golden      hash fixed-seed experiment outputs; -check verifies the manifest
  tracecheck  validate Chrome trace-event JSON files (-nested requires span nesting)
  version     print the release version
  help        print this message

run 'raybench <subcommand> -h' for flags; unknown subcommands exit 2`)
}

// gitSHA best-effort resolves the current revision; a non-repo checkout or
// missing git binary degrades to an empty field, never an error.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// matchesFilter reports whether name contains one of the comma-separated
// substrings in filter. An empty filter matches every name; empty items
// match none.
func matchesFilter(name, filter string) bool {
	if filter == "" {
		return true
	}
	for _, sub := range strings.Split(filter, ",") {
		if sub != "" && strings.Contains(name, sub) {
			return true
		}
	}
	return false
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	quick := fs.Bool("quick", false, "smoke settings: quick scenario subset, fewer reps, shorter reps")
	label := fs.String("label", "local", "report label (file name defaults to BENCH_<label>.json)")
	out := fs.String("out", "", "output path (default BENCH_<label>.json)")
	reps := fs.Int("reps", 0, "timed repetitions per scenario (0 = mode default)")
	warmup := fs.Int("warmup", 0, "warmup iterations per scenario (0 = mode default)")
	minTime := fs.Duration("mintime", 0, "per-rep wall-time target (0 = mode default)")
	filter := fs.String("filter", "", "only run scenarios whose name contains one of these comma-separated substrings")
	list := fs.Bool("list", false, "list scenario names and exit")
	traceDir := fs.String("trace-dir", "", "after each scenario, run a traced pass and write one Chrome trace here")
	faultSpec := fs.String("faults", "", `inject deterministic faults during the run, e.g. "seed=1,pool.job=error:0.05"`)
	forceScaling := fs.Bool("force-scaling", false, "record worker-scaling scenarios even when the width exceeds this machine's CPU count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
	}
	if *faultSpec != "" {
		inj, err := faults.Parse(*faultSpec)
		if err != nil {
			return err
		}
		faults.SetDefault(inj)
		defer faults.SetDefault(nil)
		fmt.Fprintf(os.Stderr, "raybench: fault injection armed: %s\n", *faultSpec)
	}
	suite := scenarios()
	if *list {
		for _, sc := range suite {
			mode := "full"
			if sc.quick {
				mode = "quick"
			}
			fmt.Printf("%-44s %s\n", sc.name, mode)
		}
		return nil
	}
	opts := benchio.Options{}
	if *quick {
		opts = benchio.Quick()
	}
	if *reps > 0 {
		opts.Reps = *reps
	}
	if *warmup > 0 {
		opts.WarmupIters = *warmup
	}
	if *minTime > 0 {
		opts.MinTime = *minTime
	}
	report := &benchio.Report{
		Label:    *label,
		UnixTime: time.Now().Unix(),
		Env:      benchio.CaptureEnv(gitSHA()),
	}
	for _, sc := range suite {
		if err := ctx.Err(); err != nil {
			return err
		}
		if *quick && !sc.quick {
			continue
		}
		if !matchesFilter(sc.name, *filter) {
			continue
		}
		// A scaling scenario wider than the machine would record an
		// oversubscribed (and therefore meaningless) number — the corruption
		// that poisoned the original seed baseline. Refuse unless forced.
		if w := benchio.ScalingWidth(sc.name); w > runtime.NumCPU() && !*forceScaling {
			fmt.Fprintf(os.Stderr, "raybench: skipping %s: width %d exceeds %d CPUs (-force-scaling records it anyway)\n",
				sc.name, w, runtime.NumCPU())
			continue
		}
		op, cleanup, err := sc.setup()
		if err != nil {
			return fmt.Errorf("setup %s: %w", sc.name, err)
		}
		start := time.Now()
		s := benchio.Measure(sc.name, opts, op)
		if sc.units > 1 {
			s.UnitsPerOp = float64(sc.units)
		}
		cleanup()
		if *traceDir != "" {
			s, err = tracePass(sc, s, *traceDir)
			if err != nil {
				return fmt.Errorf("trace %s: %w", sc.name, err)
			}
		}
		report.Scenarios = append(report.Scenarios, s)
		fmt.Fprintf(os.Stderr, "%-44s %12.0f ns/op %10.1f allocs/op %10.0f ops/s  (%s)\n",
			sc.name, s.NsPerOp, s.AllocsPerOp, s.OpsPerSec, time.Since(start).Round(time.Millisecond))
	}
	if len(report.Scenarios) == 0 {
		return fmt.Errorf("no scenarios matched (filter %q, quick=%v)", *filter, *quick)
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *label + ".json"
	}
	if err := benchio.WriteReport(path, report); err != nil {
		return err
	}
	fmt.Printf("wrote %d scenarios to %s\n", len(report.Scenarios), path)
	return nil
}

// cmdScaling measures the worker-scaling scenarios at every width the
// machine can honestly provide and gates on the speedup of the widest
// feasible width over workers=1. Unlike compare it needs no baseline file:
// scaling is a property of one machine at one revision, so it is measured
// and judged in a single run. On machines with too few CPUs for any
// multi-worker width the gate degrades to a notice and success — a laptop
// must not fail CI's job locally.
func cmdScaling(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	minSpeedup := fs.Float64("min-speedup", 2.0, "required speedup of the widest feasible width over workers=1")
	reps := fs.Int("reps", 3, "timed repetitions per width")
	minTime := fs.Duration("mintime", 25*time.Millisecond, "per-rep wall-time target")
	if err := fs.Parse(args); err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	type point struct {
		width int
		ns    float64
	}
	var points []point
	for _, sc := range scenarios() {
		w := benchio.ScalingWidth(sc.name)
		if w == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if w > procs {
			fmt.Fprintf(os.Stderr, "raybench: scaling: skipping %s (%d CPUs usable)\n", sc.name, procs)
			continue
		}
		op, cleanup, err := sc.setup()
		if err != nil {
			return fmt.Errorf("setup %s: %w", sc.name, err)
		}
		s := benchio.Measure(sc.name, benchio.Options{WarmupIters: 1, Reps: *reps, MinTime: *minTime}, op)
		cleanup()
		fmt.Fprintf(os.Stderr, "%-44s %12.0f ns/op\n", sc.name, s.NsPerOp)
		points = append(points, point{w, s.NsPerOp})
	}
	if len(points) < 2 {
		fmt.Printf("scaling: only %d feasible width(s) on a %d-CPU machine; nothing to gate\n", len(points), procs)
		return nil
	}
	base, widest := points[0], points[0]
	for _, p := range points[1:] {
		if p.width < base.width {
			base = p
		}
		if p.width > widest.width {
			widest = p
		}
	}
	if widest.ns <= 0 || base.ns <= 0 {
		return fmt.Errorf("scaling: non-positive measurement (workers=%d: %g ns/op, workers=%d: %g ns/op)",
			base.width, base.ns, widest.width, widest.ns)
	}
	speedup := base.ns / widest.ns
	fmt.Printf("scaling: workers=%d is %.2fx workers=%d (gate: ≥%.2fx)\n",
		widest.width, speedup, base.width, *minSpeedup)
	if speedup < *minSpeedup {
		return fmt.Errorf("scaling gate failed: workers=%d only %.2fx over workers=%d, want ≥%.2fx",
			widest.width, speedup, base.width, *minSpeedup)
	}
	return nil
}

// cmdThroughput measures the batched estimate path against the per-request
// path and gates on the estimates/sec ratio. Like cmdScaling it needs no
// baseline file: both sides are measured in the same process on the same
// machine moments apart, so the ratio is self-relative and machine-
// independent — a laptop and a CI runner gate on the same number even
// though their absolute throughputs differ by an order of magnitude.
//
// Both scenarios run cache-hot (the per-request baseline is
// server/estimate-cache-hit, the best case the single-request framing can
// offer), so the ratio isolates what batching actually removes: per-request
// HTTP round trips, connection handling, and envelope work. Gating the
// batch against the per-request path's *best* case keeps the gate honest —
// beating a cache-missing baseline would be trivial.
func cmdThroughput(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("throughput", flag.ExitOnError)
	minRatio := fs.Float64("min-ratio", 5.0, "required batched-over-per-request estimates/sec ratio")
	reps := fs.Int("reps", 3, "timed repetitions per scenario")
	minTime := fs.Duration("mintime", 25*time.Millisecond, "per-rep wall-time target")
	if err := fs.Parse(args); err != nil {
		return err
	}
	const (
		baseName  = "server/estimate-cache-hit"
		batchName = "server/batch-throughput"
	)
	rates := map[string]float64{}
	for _, sc := range scenarios() {
		if sc.name != baseName && sc.name != batchName {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		op, cleanup, err := sc.setup()
		if err != nil {
			return fmt.Errorf("setup %s: %w", sc.name, err)
		}
		s := benchio.Measure(sc.name, benchio.Options{WarmupIters: 1, Reps: *reps, MinTime: *minTime}, op)
		cleanup()
		units := float64(sc.units)
		if units < 1 {
			units = 1
		}
		rates[sc.name] = s.OpsPerSec * units
		fmt.Fprintf(os.Stderr, "%-44s %12.0f ns/op %10.0f estimates/s\n", sc.name, s.NsPerOp, rates[sc.name])
	}
	base, batch := rates[baseName], rates[batchName]
	if base <= 0 || batch <= 0 {
		return fmt.Errorf("throughput: non-positive measurement (%s: %g/s, %s: %g/s)",
			baseName, base, batchName, batch)
	}
	ratio := batch / base
	fmt.Printf("throughput: batch serves %.2fx the per-request estimates/sec (gate: ≥%.2fx)\n", ratio, *minRatio)
	if ratio < *minRatio {
		return fmt.Errorf("throughput gate failed: batch only %.2fx the per-request path, want ≥%.2fx", ratio, *minRatio)
	}
	return nil
}

// tracePass re-runs one scenario with the process-default tracer installed,
// writes the captured spans as a Chrome trace into dir, and fills the
// report's span-count and overhead fields. It rebuilds the scenario from
// setup so the traced pass sees the same steady state the measurement saw.
func tracePass(sc scenario, s benchio.Scenario, dir string) (benchio.Scenario, error) {
	op, cleanup, err := sc.setup()
	if err != nil {
		return s, err
	}
	defer cleanup()
	iters := s.Iters
	if iters > 64 {
		iters = 64 // the overhead estimate converges quickly; don't re-run a long suite
	}
	if iters < 1 {
		iters = 1
	}
	tr := obs.NewTracer(1 << 16)
	obs.SetDefault(tr)
	defer obs.SetDefault(nil)
	op() // warmup: pools and caches refill before the timed window
	warmupSpans := tr.Recorded()
	start := time.Now()
	for i := 0; i < iters; i++ {
		op()
	}
	elapsed := time.Since(start)
	if err := tr.WriteTraceFile(filepath.Join(dir, traceFileName(sc.name))); err != nil {
		return s, err
	}
	s.TraceSpansPerOp = float64(tr.Recorded()-warmupSpans) / float64(iters)
	tracedNs := float64(elapsed.Nanoseconds()) / float64(iters)
	if over := tracedNs - s.NsPerOp; over > 0 {
		s.TraceOverheadNsPerOp = over
	}
	return s, nil
}

// traceFileName maps a scenario name onto a flat file name.
func traceFileName(name string) string {
	r := strings.NewReplacer("/", "_", "=", "-", " ", "_")
	return r.Replace(name) + ".trace.json"
}

func cmdTraceCheck(args []string) error {
	fs := flag.NewFlagSet("tracecheck", flag.ExitOnError)
	nested := fs.Bool("nested", false, "additionally require at least one nested span pair")
	minProcs := fs.Int("min-procs", 0, "require at least this many distinct pids (a merged cluster trace has the coordinator plus every contributing worker)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("tracecheck wants one or more trace files")
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		stats, err := obs.ValidateTrace(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if *nested && !stats.Nested {
			return fmt.Errorf("%s: valid but contains no nested spans", path)
		}
		if stats.Procs < *minProcs {
			return fmt.Errorf("%s: valid but spans come from %d process(es), want ≥ %d — worker traces did not merge",
				path, stats.Procs, *minProcs)
		}
		fmt.Printf("%s: %d events on %d tracks across %d processes (nested=%v)\n",
			path, stats.Events, stats.Tracks, stats.Procs, stats.Nested)
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.10, "relative noise threshold (0.40 = ±40%)")
	metric := fs.String("metric", "time", "metric to gate on: time (ns/op) or allocs (allocs/op)")
	// Accept flags before or after the positional paths: flag.Parse stops
	// at the first non-flag, so collect positionals and re-parse the rest.
	var paths []string
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() == 0 {
			break
		}
		paths = append(paths, fs.Arg(0))
		rest = fs.Args()[1:]
	}
	if len(paths) != 2 {
		return fmt.Errorf("compare wants exactly two report paths, got %d", len(paths))
	}
	var m benchio.Metric
	switch *metric {
	case "time":
		m = benchio.MetricTime
	case "allocs":
		m = benchio.MetricAllocs
	default:
		return fmt.Errorf("unknown metric %q (want time or allocs)", *metric)
	}
	oldRep, err := benchio.ReadReport(paths[0])
	if err != nil {
		return err
	}
	newRep, err := benchio.ReadReport(paths[1])
	if err != nil {
		return err
	}
	if m == benchio.MetricTime && oldRep.Env.CPUModel != newRep.Env.CPUModel {
		fmt.Fprintf(os.Stderr, "warning: comparing times across CPU models (%q vs %q) — deltas reflect hardware, not code\n",
			oldRep.Env.CPUModel, newRep.Env.CPUModel)
	}
	res := benchio.Compare(oldRep, newRep, m, *threshold)
	if err := res.WriteText(os.Stdout); err != nil {
		return err
	}
	// Traced runs carry per-scenario span overhead; surface it (from either
	// side) so the cost of instrumentation is reviewed alongside the deltas.
	for _, rep := range []*benchio.Report{oldRep, newRep} {
		if err := benchio.WriteTraceOverhead(os.Stdout, rep); err != nil {
			return err
		}
	}
	if res.Failed() {
		// Name only the failure causes that actually occurred: "0 missing
		// scenario(s)" next to real regressions (or vice versa) reads as if
		// both gates tripped.
		var causes []string
		if n := len(res.Regressions()); n > 0 {
			causes = append(causes, fmt.Sprintf("%d regression(s) beyond ±%.0f%%", n, *threshold*100))
		}
		if n := len(res.Missing); n > 0 {
			causes = append(causes, fmt.Sprintf("%d scenario(s) missing from the new report", n))
		}
		return errors.New(strings.Join(causes, " and "))
	}
	fmt.Printf("no regressions beyond ±%.0f%% (%s)", *threshold*100, *metric)
	if n := len(res.Added); n > 0 {
		// New scenarios have no baseline to gate against; say so explicitly
		// so their listing above is not mistaken for a problem.
		fmt.Printf("; %d new scenario(s) without a baseline, not gated", n)
	}
	fmt.Println()
	return nil
}

func cmdGolden(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("golden", flag.ExitOnError)
	path := fs.String("path", "results/golden.json", "manifest path")
	check := fs.Bool("check", false, "verify against the recorded manifest instead of writing")
	out := fs.String("out", "", "write the recomputed manifest here (default: -path)")
	withTrace := fs.Bool("trace", false, "recompute with tracing enabled (the hashes must not move — instrumentation cannot perturb outputs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *withTrace {
		obs.SetDefault(obs.NewTracer(1 << 16))
		defer obs.SetDefault(nil)
	}
	computed, err := computeGolden(ctx)
	if err != nil {
		return err
	}
	if *check {
		recorded, err := benchio.ReadGolden(*path)
		if err != nil {
			return err
		}
		diff := benchio.DiffGolden(recorded, computed)
		if diff.Clean() {
			fmt.Printf("golden: %d experiments byte-identical to %s\n", len(recorded.Entries), *path)
			return nil
		}
		for _, name := range diff.Mismatched {
			fmt.Printf("MISMATCH %-12s recorded %s != computed %s\n",
				name, short(recorded.Entries[name].SHA256), short(computed.Entries[name].SHA256))
		}
		for _, name := range diff.Missing {
			fmt.Printf("MISSING  %-12s recorded but no longer computed\n", name)
		}
		for _, name := range diff.Extra {
			fmt.Printf("EXTRA    %-12s computed but not recorded (regenerate the manifest)\n", name)
		}
		return fmt.Errorf("golden manifest drift: %d mismatched, %d missing, %d extra (regenerate with 'raybench golden' if intentional)",
			len(diff.Mismatched), len(diff.Missing), len(diff.Extra))
	}
	dest := *out
	if dest == "" {
		dest = *path
	}
	if err := benchio.WriteGolden(dest, computed); err != nil {
		return err
	}
	fmt.Printf("wrote %d experiment hashes to %s\n", len(computed.Entries), dest)
	return nil
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
