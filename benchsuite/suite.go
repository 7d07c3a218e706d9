package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"

	"rayfade/benchsuite/load"
	"rayfade/internal/benchio"
	"rayfade/internal/fsio"
)

// maxResidualPct is the largest share of an operation the traced
// attribution may leave unexplained before -repeat-check fails.
const maxResidualPct = 15

// suiteRun is one invocation of one workload.
type suiteRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// suiteReport is what -out writes: every invocation, and the machine that
// measured them.
type suiteReport struct {
	Env     benchio.Env `json:"env"`
	Seconds float64     `json:"seconds"`
	Runs    []suiteRun  `json:"runs"`
	// RepeatCheck holds the set comparison of -repeat-check.
	RepeatCheck []agreement `json:"repeat_check,omitempty"`
}

// agreement compares one metric's medians over two sets of runs; the
// spreads are each set's interquartile range over its median.
type agreement struct {
	Workload     string  `json:"workload"`
	Metric       string  `json:"metric"`
	First        float64 `json:"first_median"`
	Second       float64 `json:"second_median"`
	FirstSpread  float64 `json:"first_spread"`
	SecondSpread float64 `json:"second_spread"`
	RelDiff      float64 `json:"rel_diff"`
	Bound        float64 `json:"bound"`
	OK           bool    `json:"ok"`
}

// cmdSuite runs every workload, each in its own process as BENCHMARK.json's
// command runs it, and prints every metric by name with its unit.
func cmdSuite(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed of the first run; -repeat-check uses the next five too")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	out := fs.String("out", "", "write every run's result and the machine description here as JSON")
	traceDir := fs.String("trace-dir", "", "also run each workload traced (per-layer metrics, attribution) and write its Chrome traces here")
	repeat := fs.Bool("repeat-check", false, "run two sets of three untraced runs per workload and one traced run; exit 1 when set medians disagree beyond a metric's bound or a residual exceeds 15%")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkMachine(); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := suiteReport{Env: benchio.CaptureEnv(""), Seconds: *seconds}
	invoke := func(w string, seed uint64, trace bool) (result, error) {
		args := []string{"--workload", w, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0"}
		if trace {
			args[len(args)-1] = "1"
			if *traceDir != "" {
				args = append(args, "--trace-dir", *traceDir)
			}
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s seed %d trace %v: %w", w, seed, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return result{}, fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
		}
		rep.Runs = append(rep.Runs, suiteRun{Workload: w, Seed: seed, Trace: trace, Result: res})
		if !res.Correct {
			return res, fmt.Errorf("%s seed %d: outputs failed their checks", w, seed)
		}
		return res, nil
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
	}

	failures := 0
	for _, w := range workloads {
		sets, perSet := 1, 1
		if *repeat {
			sets, perSet = 2, 3
		}
		values := make([]map[string][]float64, sets)
		for s := 0; s < sets; s++ {
			values[s] = map[string][]float64{}
			for i := 0; i < perSet; i++ {
				res, err := invoke(w.name, *seed+uint64(s*perSet+i), false)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					values[s][name] = append(values[s][name], m.Value)
				}
			}
		}
		printMetrics(w.name, "end to end", endToEnd, values[0])
		if *repeat {
			for _, spec := range endToEnd {
				first, second := values[0][spec.Name], values[1][spec.Name]
				a, b := load.Median(first), load.Median(second)
				ag := agreement{Workload: w.name, Metric: spec.Name, First: a, Second: b,
					FirstSpread: load.Spread(first), SecondSpread: load.Spread(second),
					RelDiff: (b - a) / a, Bound: spec.Bound}
				ag.OK = math.Abs(ag.RelDiff) <= spec.Bound
				if !ag.OK {
					failures++
				}
				rep.RepeatCheck = append(rep.RepeatCheck, ag)
			}
		}
		if *traceDir != "" || *repeat {
			res, err := invoke(w.name, *seed, true)
			if err != nil {
				return err
			}
			layer := map[string][]float64{}
			for name, m := range res.Metrics {
				layer[name] = []float64{m.Value}
			}
			printMetrics(w.name, "per layer", perLayer, layer)
			if r := res.Metrics["residual_pct"].Value; *repeat && math.Abs(r) > maxResidualPct {
				fmt.Printf("FAIL %s: attribution leaves %.1f%% unexplained (limit %d%%)\n", w.name, r, maxResidualPct)
				failures++
			}
		}
	}
	if *repeat {
		fmt.Printf("\nrepeat check: medians of runs with seeds %d-%d against %d-%d\n", *seed, *seed+2, *seed+3, *seed+5)
		fmt.Printf("%-11s %-13s %12s %7s %12s %7s %8s %6s\n", "workload", "metric", "first", "spread", "second", "spread", "diff", "bound")
		for _, ag := range rep.RepeatCheck {
			verdict := "ok"
			if !ag.OK {
				verdict = "DISAGREE"
			}
			fmt.Printf("%-11s %-13s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%% %5.0f%% %s\n",
				ag.Workload, ag.Metric, ag.First, 100*ag.FirstSpread, ag.Second, 100*ag.SecondSpread,
				100*ag.RelDiff, 100*ag.Bound, verdict)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := fsio.WriteFileAtomic(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("repeat check: %d failure(s)", failures)
	}
	return nil
}

// printMetrics prints one workload's metrics, the median where a metric has
// several runs.
func printMetrics(workload, kind string, specs []metricSpec, values map[string][]float64) {
	fmt.Printf("\n%s — %s (%s)\n", workload, kind, time.Now().Format(time.TimeOnly))
	for _, s := range specs {
		vs := values[s.Name]
		if len(vs) == 0 {
			continue
		}
		fmt.Printf("  %-28s %14.6g %-6s (n=%d)\n", s.Name, load.Median(vs), s.Unit, len(vs))
	}
}
