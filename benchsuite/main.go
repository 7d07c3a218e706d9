// Command benchsuite is the repository's benchmark: four workloads that
// drive the system through its public entry points — sim.RunFigure1Ctx, the
// rayschedd handler (server.New) behind a loopback HTTP listener, and the
// dist coordinator — and report end-to-end and per-layer metrics.
//
// One workload per run:
//
//	benchsuite --workload fig1 --seed 1 --seconds 20 --trace 0
//
// prints a table to standard error and, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones, from a separate run with the
// obs tracer installed and the workload's inputs replayed through each
// layer's public functions.
//
// All workloads, each in its own process:
//
//	benchsuite suite -seed 1 [-seconds 20] [-out result.json] [-trace-dir DIR] [-repeat-check]
//
// run.sh builds the binary inside the checkout and runs it; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rayfade/benchsuite/load"
	"rayfade/internal/benchio"
)

// procs is the parallelism every run uses: the load generator, the server
// and the sim fan-out share two CPUs, so results from bigger machines stay
// comparable with the recorded ones.
const procs = 2

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if len(os.Args) > 1 && os.Args[1] == "suite" {
		err = cmdSuite(ctx, os.Args[2:])
	} else {
		err = cmdRun(ctx, os.Args[1:])
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "benchsuite: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
}

// checkMachine enforces the recording rules: a number measured with fewer
// than two CPUs cannot show the sim fan-out or a server sharing the machine
// with its load, so it is refused rather than recorded.
func checkMachine() error {
	if n := runtime.NumCPU(); n < procs {
		return fmt.Errorf("refusing to measure: %d CPU(s), the benchmark needs %d", n, procs)
	}
	if runtime.GOMAXPROCS(0) < procs {
		return fmt.Errorf("refusing to measure: GOMAXPROCS=%d, the benchmark needs %d", runtime.GOMAXPROCS(0), procs)
	}
	runtime.GOMAXPROCS(procs)
	return nil
}

// runConfig is one run's settings.
type runConfig struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

// budget is the measured time of a run, split by fraction.
func (c runConfig) budget(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", "", "with -trace 1, also write the captured spans as Chrome trace files here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds < 5 {
		return fmt.Errorf("-seconds %g: want at least 5", *seconds)
	}
	if err := checkMachine(); err != nil {
		return err
	}
	env := benchio.CaptureEnv("")
	fmt.Fprintf(os.Stderr, "benchsuite: %s seed=%d seconds=%g trace=%d on %d CPU(s), GOMAXPROCS=%d, %s, %s\n",
		w.name, *seed, *seconds, *trace, env.NumCPU, env.GOMAXPROCS, env.CPUModel, env.GoVersion)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	rep := newReport(specs)
	start := time.Now()
	if cfg.trace {
		if err := w.traced(ctx, cfg, rep); err != nil {
			return err
		}
		rep.set("host.slowdown", load.Median(rep.slowdowns))
		rep.setZero()
	} else {
		if err := w.run(ctx, cfg, rep); err != nil {
			return err
		}
		rep.set("peak_heap_mb", rep.heapPeak/(1<<20))
	}
	fmt.Fprintf(os.Stderr, "benchsuite: %s finished in %s; times divided by the machine's slowdown, median %.3f over %d pauses: %.2f\n",
		w.name, time.Since(start).Round(time.Millisecond), load.Median(rep.slowdowns), len(rep.slowdowns), rep.slowdowns)
	rep.writeTable(os.Stderr)
	res, err := rep.result()
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}
