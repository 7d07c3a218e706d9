package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"rayfade/internal/faults"
	"rayfade/internal/leakcheck"
	"rayfade/internal/rng"
)

func intCodec() (func(int) ([]byte, error), func([]byte) (int, error)) {
	enc := func(v int) ([]byte, error) { return json.Marshal(v) }
	dec := func(data []byte) (int, error) {
		var v int
		err := json.Unmarshal(data, &v)
		return v, err
	}
	return enc, dec
}

func TestParallelCheckpointCtxResumes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	cfg := struct{ Label string }{"resume-test"}
	const reps = 8
	enc, dec := intCodec()
	fn := func(_ context.Context, rep int, src *rng.Source) int { return rep*100 + int(src.Float64()*10) }

	// Reference: uninterrupted, no checkpoint.
	base := rng.New(3)
	want, err := ParallelCheckpointCtx(context.Background(), reps, 1, base, nil, enc, dec, fn)
	if err != nil {
		t.Fatal(err)
	}

	// First run: cancel after three completions.
	ck, err := OpenCheckpoint(path, "test", cfg, reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completions atomic.Int64
	_, err = ParallelCheckpointCtx(ctx, reps, 1, rng.New(3), ck, enc, dec, func(ctx context.Context, rep int, src *rng.Source) int {
		out := fn(ctx, rep, src)
		if completions.Add(1) == 3 {
			cancel()
		}
		return out
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}
	done := ck.Done()
	if done == 0 || done >= reps {
		t.Fatalf("checkpoint holds %d/%d reps; wanted a genuine partial", done, reps)
	}

	// Resume: a fresh Checkpoint from the same path must restore the partial
	// progress, recompute only the rest, and match the reference exactly.
	ck2, err := OpenCheckpoint(path, "test", cfg, reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Restored() != done {
		t.Fatalf("Restored = %d, want %d", ck2.Restored(), done)
	}
	var recomputed atomic.Int64
	got, err := ParallelCheckpointCtx(context.Background(), reps, 3, rng.New(3), ck2, enc, dec, func(ctx context.Context, rep int, src *rng.Source) int {
		recomputed.Add(1)
		return fn(ctx, rep, src)
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(recomputed.Load()) != reps-done {
		t.Fatalf("resume recomputed %d reps, want %d", recomputed.Load(), reps-done)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rep %d: resumed %d != uninterrupted %d", i, got[i], want[i])
		}
	}
	if ck2.Done() != reps {
		t.Fatalf("final checkpoint holds %d/%d", ck2.Done(), reps)
	}
}

func TestParallelCheckpointCtxNilCheckpoint(t *testing.T) {
	enc, dec := intCodec()
	got, err := ParallelCheckpointCtx(context.Background(), 4, 2, rng.New(1), nil, enc, dec,
		func(_ context.Context, rep int, src *rng.Source) int { return rep })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestParallelCheckpointCtxRepsMismatch(t *testing.T) {
	ck, err := OpenCheckpoint(filepath.Join(t.TempDir(), "ck.json"), "test", 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := intCodec()
	if _, err := ParallelCheckpointCtx(context.Background(), 5, 1, rng.New(1), ck, enc, dec,
		func(_ context.Context, rep int, src *rng.Source) int { return rep }); err == nil {
		t.Fatal("want error for reps mismatch between Open and run")
	}
}

func TestOpenCheckpointRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	ck, err := OpenCheckpoint(path, "figure1", struct{ Seed int }{1}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.record(0, json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		experiment string
		config     any
		reps       int
	}{
		{"config", "figure1", struct{ Seed int }{2}, 4},
		{"experiment", "figure2", struct{ Seed int }{1}, 4},
		{"reps", "figure1", struct{ Seed int }{1}, 5},
	}
	for _, tc := range cases {
		_, err := OpenCheckpoint(path, tc.experiment, tc.config, tc.reps, 1)
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s change: err = %v, want ErrCheckpointMismatch", tc.name, err)
		}
	}

	// Matching identity still opens.
	ck2, err := OpenCheckpoint(path, "figure1", struct{ Seed int }{1}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Restored() != 1 {
		t.Fatalf("Restored = %d, want 1", ck2.Restored())
	}
}

func TestOpenCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	ck, err := OpenCheckpoint(path, "figure1", 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.record(0, json.RawMessage(`42`)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the body payload: checksum must catch it.
	tampered := bytes.Replace(raw, []byte(`"reps":2`), []byte(`"reps":3`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("test setup: tamper target not found")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, "figure1", 1, 2, 1); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("tampered body: err = %v, want ErrCheckpointCorrupt", err)
	}

	// Outright garbage.
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, "figure1", 1, 2, 1); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("garbage file: err = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCheckpointFlushFailureSurfacesButRunCompletes(t *testing.T) {
	inj, err := faults.Parse("fsio.write=error:1")
	if err != nil {
		t.Fatal(err)
	}
	faults.SetDefault(inj)
	defer faults.SetDefault(nil)

	ck, err := OpenCheckpoint(filepath.Join(t.TempDir(), "ck.json"), "test", 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := intCodec()
	got, err := ParallelCheckpointCtx(context.Background(), 4, 1, rng.New(1), ck, enc, dec,
		func(_ context.Context, rep int, src *rng.Source) int { return rep + 10 })
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected write failure", err)
	}
	// The results themselves are intact — only persistence failed.
	for i, v := range got {
		if v != i+10 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

// TestFigure1KillResumeByteIdentical is the in-process half of the
// kill/resume acceptance criterion: a Figure-1 run interrupted mid-way
// (here by context cancellation while a delay fault keeps replications
// slow) and resumed from its checkpoint must render byte-identical CSV to
// an uninterrupted fixed-seed run. The true-SIGKILL variant lives in
// cmd/raysched's tests.
func TestFigure1KillResumeByteIdentical(t *testing.T) {
	cfg := smallFig1()
	cfg.Networks = 6
	cfg.Workers = 1

	render := func(res *Figure1Result) []byte {
		var buf bytes.Buffer
		if err := WriteSeriesCSV(&buf, "p", res.Probs, res.CurveNames(), res.Curves); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := render(run(t, RunFigure1Ctx, cfg))

	// Interrupted run: every replication is slowed by an injected delay, and
	// a watcher cancels the context as soon as the first checkpoint flush
	// lands — guaranteeing the run dies with a genuine partial on disk.
	path := filepath.Join(t.TempDir(), "fig1.ck.json")
	ckCfg := cfg
	ckCfg.Checkpoint = path
	inj, err := faults.Parse("sim.replication=delay:1:30ms")
	if err != nil {
		t.Fatal(err)
	}
	faults.SetDefault(inj)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			if _, err := os.Stat(path); err == nil {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	res, runErr := RunFigure1Ctx(ctx, ckCfg)
	faults.SetDefault(nil)
	cancel()
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("interrupted run: res=%v err=%v, want cancellation", res, runErr)
	}
	if res != nil {
		t.Fatal("cancelled run must not return partial results")
	}

	// A probe with a foreign config must be refused (the file is bound to
	// its run), and the file must hold a strict subset of the replications.
	if _, perr := OpenCheckpoint(path, "figure1", 1, cfg.Networks, 1); !errors.Is(perr, ErrCheckpointMismatch) {
		t.Fatalf("probe with wrong config: err = %v, want mismatch", perr)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file checkpointFile
	if err := json.Unmarshal(before, &file); err != nil {
		t.Fatal(err)
	}
	var body checkpointBody
	if err := json.Unmarshal(file.Body, &body); err != nil {
		t.Fatal(err)
	}
	if n := len(body.Results); n == 0 || n >= cfg.Networks {
		t.Fatalf("checkpoint holds %d/%d networks; wanted a genuine partial", n, cfg.Networks)
	}

	// Resume with different parallelism and no faults: byte-identical output.
	ckCfg.Workers = 4
	res2, err := RunFigure1Ctx(context.Background(), ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(res2); !bytes.Equal(got, want) {
		t.Fatalf("resumed CSV differs from uninterrupted run\nresumed:\n%s\nwant:\n%s", got, want)
	}
}

// TestParallelCtxCancelMidReplication is the satellite coverage item: a
// cancellation that lands while replications are in flight must (a) return
// ctx.Err, (b) never report a completed experiment, (c) leave untouched
// result slots at the zero value, and (d) let every worker exit cleanly —
// run under -race in CI, with the shared leak-check helper watching (d).
func TestParallelCtxCancelMidReplication(t *testing.T) {
	leakcheck.Check(t)
	const reps, workers = 32, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	release := make(chan struct{})
	results, err := ParallelCtx(ctx, reps, workers, rng.New(1), func(_ context.Context, rep int, src *rng.Source) string {
		if started.Add(1) == workers {
			// All workers are now mid-replication; cancel and let them finish
			// their current rep only.
			cancel()
			close(release)
		}
		<-release
		return "done-" + strconv.Itoa(rep)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	completed := 0
	for r, v := range results {
		switch v {
		case "":
			// Untouched slot: this replication never started. Fine.
		case "done-" + strconv.Itoa(r):
			completed++
		default:
			t.Fatalf("slot %d holds foreign result %q", r, v)
		}
	}
	if completed == 0 {
		t.Fatal("expected the in-flight replications to finish")
	}
	if completed == reps {
		t.Fatal("cancellation did not actually interrupt the run")
	}
}

func TestRunFigure1CancelledReturnsNil(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunFigure1Ctx(ctx, smallFig1())
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("res=%v err=%v, want nil + context.Canceled", res, err)
	}
}
