package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rayfade/internal/netio"
	"rayfade/internal/network"
	"rayfade/internal/rng"
)

// TestMain doubles as the re-exec entry point for the SIGKILL test: when
// RAYSCHED_FIGURE1_CHILD is set the test binary behaves like `raysched
// figure1 <args>` and never runs the suite, so the parent test can kill a
// real process mid-run.
func TestMain(m *testing.M) {
	if os.Getenv("RAYSCHED_FIGURE1_CHILD") == "1" {
		args := strings.Split(os.Getenv("RAYSCHED_FIGURE1_ARGS"), "\x1f")
		if err := cmdFigure1(context.Background(), args); err != nil {
			fmt.Fprintln(os.Stderr, "figure1 child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", errRun, out)
	}
	return out
}

func TestCmdFigure1Tiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdFigure1(context.Background(), []string{"-networks", "2", "-links", "20", "-txseeds", "2",
			"-fadeseeds", "2", "-points", "3", "-format", "csv"})
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 points
		t.Fatalf("csv lines: %d\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "uniform/rayleigh_mean") {
		t.Fatalf("header: %s", lines[0])
	}
}

func TestCmdFigure1SVG(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdFigure1(context.Background(), []string{"-networks", "1", "-links", "15", "-txseeds", "2",
			"-fadeseeds", "1", "-points", "3", "-format", "svg"})
	})
	if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Fatalf("not an SVG document:\n%s", out[:120])
	}
}

// TestCmdFigure1Formats runs every curve command in every -format and checks
// each output's signature; an unknown -format must fail before anything runs.
func TestCmdFigure1Formats(t *testing.T) {
	cmds := []struct {
		name, x string
		run     func(context.Context, []string) error
		args    []string
	}{
		{"figure1", "prob", cmdFigure1, []string{"-networks", "1", "-links", "15", "-txseeds", "2", "-fadeseeds", "1", "-points", "3"}},
		{"figure2", "round", cmdFigure2, []string{"-networks", "1", "-links", "15", "-rounds", "5"}},
		{"shannon", "prob", cmdShannon, []string{"-networks", "1", "-links", "15"}},
		{"topology", "prob", cmdTopology, []string{"-side", "3"}},
	}
	for _, c := range cmds {
		signatures := map[string]func(string) bool{
			"csv": func(out string) bool { return strings.HasPrefix(out, c.x+",") },
			"md":  func(out string) bool { return strings.HasPrefix(out, "| "+c.x+" |") },
			"svg": func(out string) bool {
				return strings.HasPrefix(out, "<svg") && strings.HasSuffix(strings.TrimSpace(out), "</svg>")
			},
			"ascii": func(out string) bool {
				return strings.TrimSpace(out) != "" && !strings.HasPrefix(out, "|") && !strings.HasPrefix(out, "<")
			},
		}
		for format, ok := range signatures {
			t.Run(c.name+"/"+format, func(t *testing.T) {
				out := captureStdout(t, func() error {
					return c.run(context.Background(), append(append([]string{}, c.args...), "-format", format))
				})
				if !ok(out) {
					t.Fatalf("-format %s output lacks its signature:\n%s", format, out)
				}
			})
		}
		t.Run(c.name+"/bogus", func(t *testing.T) {
			// A trace file appears only if the run started.
			trace := filepath.Join(t.TempDir(), "run.trace.json")
			err := c.run(context.Background(), append(append([]string{}, c.args...), "-format", "bogus", "-trace", trace))
			if err == nil || !strings.Contains(err.Error(), "-format") {
				t.Fatalf("-format bogus: err = %v, want an unknown-format error", err)
			}
			if _, serr := os.Stat(trace); serr == nil {
				t.Fatal("-format bogus ran the experiment before failing")
			}
		})
	}
	// cluster rejects the format before dispatching to any worker.
	err := cmdCluster(context.Background(), []string{"-workers", "http://127.0.0.1:1", "-format", "bogus"})
	if err == nil || !strings.Contains(err.Error(), "-format") {
		t.Fatalf("cluster -format bogus: err = %v, want an unknown-format error", err)
	}
}

func TestCmdFigure1ClusterTopology(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdFigure1(context.Background(), []string{"-networks", "1", "-links", "40", "-txseeds", "2",
			"-fadeseeds", "1", "-points", "3", "-topology", "cluster", "-format", "csv"})
	})
	if !strings.Contains(out, "uniform/rayleigh_mean") {
		t.Fatalf("output:\n%s", out)
	}
}

// TestFigure1SIGKILLResumeByteIdentical is the end-to-end crash-safety
// claim: a figure1 process killed with SIGKILL (no signal handler, no
// graceful anything) mid-run leaves a checkpoint that a rerun resumes from,
// and the resumed CSV is byte-identical to an uninterrupted run. Delay
// faults slow the child's replications so the kill reliably lands mid-run.
func TestFigure1SIGKILLResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot locate test binary: %v", err)
	}
	dir := t.TempDir()
	ck := filepath.Join(dir, "fig1.ckpt")
	common := []string{"-networks", "6", "-links", "20", "-txseeds", "2",
		"-fadeseeds", "2", "-points", "3", "-workers", "1"}

	childArgs := append(append([]string{}, common...),
		"-checkpoint", ck,
		"-out", filepath.Join(dir, "child.csv"),
		"-faults", "seed=1,sim.replication=delay:1:300ms")
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"RAYSCHED_FIGURE1_CHILD=1",
		"RAYSCHED_FIGURE1_ARGS="+strings.Join(childArgs, "\x1f"))
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint is written atomically, so its appearance means at
	// least one replication is durably recorded — kill the moment it shows.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(ck); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("checkpoint file never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to report the kill; the checkpoint is what matters

	resumed := filepath.Join(dir, "resumed.csv")
	resumeArgs := append(append([]string{}, common...), "-checkpoint", ck, "-out", resumed)
	if err := cmdFigure1(context.Background(), resumeArgs); err != nil {
		t.Fatalf("resume: %v", err)
	}
	ref := filepath.Join(dir, "ref.csv")
	refArgs := append(append([]string{}, common...), "-out", ref)
	if err := cmdFigure1(context.Background(), refArgs); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed run differs from uninterrupted run:\nresumed:\n%s\nreference:\n%s", got, want)
	}
}

func TestCmdFigure2Tiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdFigure2(context.Background(), []string{"-networks", "2", "-links", "20", "-rounds", "10", "-format", "csv"})
	})
	if !strings.Contains(out, "round,non-fading_mean") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCmdFigure2Exp3AndSummary(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdFigure2(context.Background(), []string{"-networks", "2", "-links", "20", "-rounds", "10", "-learner", "exp3"})
	})
	for _, want := range []string{"lemma-5 non-fading", "lemma-5 rayleigh", "final mean send prob"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCmdOptimumTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdOptimum(context.Background(), []string{"-networks", "2", "-links", "20", "-restarts", "2"})
	})
	if !strings.Contains(out, "local-search optimum") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCmdCapacityTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdCapacity(context.Background(), []string{"-links", "25"})
	})
	for _, want := range []string{"greedy uniform", "local search", "power control"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCmdLatencyTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdLatency(context.Background(), []string{"-networks", "2", "-links", "20", "-trials", "1"})
	})
	for _, want := range []string{"repeated capacity", "ALOHA", "backoff"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCmdCapacityFromInputFile(t *testing.T) {
	// Generate a workload with raygen's format and feed it back via -input.
	dir := t.TempDir()
	path := dir + "/net.json"
	cfg := network.Figure1Config()
	cfg.N = 12
	net, err := network.Random(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := netio.SaveFile(path, net); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return cmdCapacity(context.Background(), []string{"-input", path})
	})
	if !strings.Contains(out, "greedy uniform") {
		t.Fatalf("output:\n%s", out)
	}
	// Missing file errors out.
	if err := cmdCapacity(context.Background(), []string{"-input", dir + "/nope.json"}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestCmdProbeTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdProbe([]string{"-links", "6"})
	})
	if !strings.Contains(out, "expected successes") {
		t.Fatalf("output:\n%s", out)
	}
	// 6 links → 6 data rows between header and footer.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 8 {
		t.Fatalf("probe printed %d lines:\n%s", len(lines), out)
	}
}

func TestCmdReductionTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdReduction(context.Background(), []string{"-networks", "1", "-samples", "20"})
	})
	if !strings.Contains(out, "rayleigh / best step") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCmdFadingTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdFading(context.Background(), []string{"-networks", "1", "-links", "15"})
	})
	if !strings.Contains(out, "Rayleigh (paper's model)") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCmdTopologyTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdTopology(context.Background(), []string{"-side", "3", "-format", "csv"})
	})
	if !strings.Contains(out, "grid/non-fading_mean") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCmdBaselineTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdBaseline(context.Background(), []string{"-networks", "2", "-links", "30"})
	})
	for _, want := range []string{"graph independent set", "SINR violations", "rayleigh replay"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCmdShannonTiny(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdShannon(context.Background(), []string{"-networks", "1", "-links", "15", "-format", "csv"})
	})
	if !strings.Contains(out, "shannon/rayleigh_mean") {
		t.Fatalf("output:\n%s", out)
	}
}
