// Package sim is the experiment harness: it reproduces the paper's
// evaluation (Section 7) — Figure 1, Figure 2, and the in-text optimum
// reference — on top of the model and algorithm packages, with deterministic
// seeding and bounded parallelism.
//
// Every experiment follows the same scheme: a config struct with the paper's
// parameters as defaults, a Run function that fans replications out over a
// worker pool (one deterministic RNG stream per replication, so results are
// identical at any parallelism level), and a result type that carries means
// with standard errors and renders itself as CSV, a markdown table, or an
// ASCII chart for terminal inspection.
package sim

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"

	"rayfade/internal/faults"
	"rayfade/internal/obs"
	"rayfade/internal/progress"
	"rayfade/internal/rng"
)

// tracker, when set, receives replication- and realization-level
// notifications from every experiment in the package. It is process-global
// rather than per-config because one CLI invocation runs one experiment; the
// atomic pointer keeps ParallelCtx's worker goroutines race-free against
// SetProgress.
var tracker atomic.Pointer[progress.Tracker]

// SetProgress installs (or, with nil, removes) the progress tracker observed
// by ParallelCtx and the experiment inner loops. The CLI's -progress flag is
// its only intended caller.
func SetProgress(t *progress.Tracker) {
	tracker.Store(t)
}

// activeTracker returns the installed tracker, or nil. All progress.Tracker
// methods are nil-safe, so call sites never branch.
func activeTracker() *progress.Tracker {
	return tracker.Load()
}

// logger, when set, receives experiment lifecycle records (start, finish,
// parameters, elapsed time). Like the tracker it is process-global: one CLI
// invocation runs one experiment, and the atomic pointer keeps worker
// goroutines race-free against SetLogger.
var logger atomic.Pointer[slog.Logger]

// SetLogger installs (or, with nil, removes) the structured logger observed
// by the experiment harness. The CLIs' -log-level flag is its intended
// caller.
func SetLogger(l *slog.Logger) {
	if l == nil {
		logger.Store(obs.Discard())
		return
	}
	logger.Store(l)
}

// activeLogger returns the installed logger, defaulting to a discard logger
// so call sites log unconditionally.
func activeLogger() *slog.Logger {
	if l := logger.Load(); l != nil {
		return l
	}
	return obs.Discard()
}

// ParallelCtx runs fn for reps replications on up to workers goroutines and
// returns the per-replication results in replication order.
//
// Determinism: the RNG streams are split from base sequentially before any
// goroutine starts, so the result for replication r does not depend on the
// worker count or scheduling. workers ≤ 0 selects GOMAXPROCS.
//
// When a progress tracker is installed via SetProgress, ParallelCtx registers
// reps expected replications up front and reports each completion, giving
// long runs an elapsed/ETA readout at no cost to the replication hot path.
//
// Cancellation: when ctx is cancelled, no further replications are started
// and ctx.Err() is returned alongside the partial results (already-running
// replications finish — fn is never interrupted mid-flight, so each
// results[r] is either complete or the zero value). A nil error means every
// replication ran. Experiments whose single replications are long pass ctx
// into their inner scheduler loops as well (see capacity and latency's Ctx
// variants).
func ParallelCtx[T any](ctx context.Context, reps, workers int, base *rng.Source, fn func(rep int, src *rng.Source) T) ([]T, error) {
	if reps < 0 {
		panic(fmt.Sprintf("sim: negative replication count %d", reps))
	}
	return parallelRange(ctx, 0, reps, workers, base.SplitN(reps), fn)
}

// ParallelShardCtx runs only the replication indices [lo, hi) of a reps-wide
// index space, returning their results with results[i] holding replication
// lo+i. The RNG streams for the FULL index space are split from base exactly
// as ParallelCtx would split them, so the result for replication r is
// bit-identical to what a full run computes for r — the property that lets a
// cluster of workers each compute a shard and a coordinator merge the shards
// into an artifact byte-identical to a single-node run.
func ParallelShardCtx[T any](ctx context.Context, reps, lo, hi, workers int, base *rng.Source, fn func(rep int, src *rng.Source) T) ([]T, error) {
	if reps < 0 {
		panic(fmt.Sprintf("sim: negative replication count %d", reps))
	}
	if lo < 0 || hi > reps || lo > hi {
		return nil, fmt.Errorf("sim: shard range [%d,%d) outside [0,%d)", lo, hi, reps)
	}
	return parallelRange(ctx, lo, hi, workers, base.SplitN(reps), fn)
}

// parallelRange is the shared fan-out behind ParallelCtx (lo=0, hi=reps) and
// ParallelShardCtx: it runs the global replication indices [lo, hi) against
// the pre-split per-replication streams srcs (indexed by global replication)
// and stores results[r-lo].
func parallelRange[T any](ctx context.Context, lo, hi, workers int, srcs []*rng.Source, fn func(rep int, src *rng.Source) T) ([]T, error) {
	n := hi - lo
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	t := activeTracker()
	t.AddTotal(n)
	// The fan-out is one phase span; each replication is a detached span (its
	// own trace track — concurrent siblings must not share a track, see
	// obs.StartDetached). When no tracer is installed all of this is free.
	ctx, fanSpan := obs.Start(ctx, "parallel.fanout")
	fanSpan.SetAttr("reps", n)
	fanSpan.SetAttr("workers", workers)
	if lo > 0 || hi < len(srcs) {
		fanSpan.SetAttr("shard_lo", lo)
		fanSpan.SetAttr("shard_hi", hi)
	}
	defer fanSpan.End()
	runOne := func(r int, src *rng.Source) T {
		_, sp := obs.StartDetached(ctx, "replication")
		sp.SetAttr("rep", r)
		// Chaos hook: a replication body has no error channel, so an injected
		// transient error escalates to a panic here, same as an injected
		// panic — the process-killing crash that checkpoint/resume exists to
		// survive. With no injector installed this is one atomic load.
		if err := faults.Inject(faults.SiteReplication); err != nil {
			panic(err)
		}
		out := fn(r, src)
		sp.End()
		return out
	}
	if workers <= 1 {
		for r := lo; r < hi; r++ {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			results[r-lo] = runOne(r, srcs[r])
			t.ReplicationDone()
		}
		return results, nil
	}
	// Workers claim replication indices with a lock-free fetch-add instead of
	// receiving them from a dispatcher goroutine. The previous unbuffered
	// job channel forced a two-way scheduler rendezvous per replication
	// (worker wakes dispatcher, dispatcher wakes worker), which serialized
	// dispatch and flattened scaling once replication bodies got cheap; a
	// fetch-add claim is a single uncontended cache-line bump. Cancellation
	// is polled before each claim, preserving the "no further replications
	// are started" contract at the same granularity as before.
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				r := lo + int(next.Add(1)) - 1
				if r >= hi {
					return
				}
				results[r-lo] = runOne(r, srcs[r])
				t.ReplicationDone()
			}
		}()
	}
	wg.Wait()
	return results, ctx.Err()
}
