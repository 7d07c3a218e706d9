// Package dist is the cluster coordinator for distributed Monte-Carlo runs:
// it partitions a run's replication index space [0, reps) into contiguous
// shards, dispatches them to a set of rayschedd workers over POST /v1/shard
// (through the retrying client), and merges the returned shard documents
// into one complete result map in replication-index order.
//
// Correctness rests on the sim layer's determinism contract: every worker
// splits the same per-replication RNG streams, so a shard's bytes are
// independent of which worker computed it, how many workers exist, and in
// what order shards complete. The coordinator therefore only has to ensure
// coverage — every index merged exactly once — and the final artifact is
// byte-identical to a single-node run by construction.
//
// Failure model:
//
//   - Each dispatch holds a lease: a per-attempt context deadline. A worker
//     that dies, hangs, or is partitioned misses its lease and the shard is
//     requeued for any live worker — work is reassigned, never lost.
//   - The coordinator itself is crash-safe when Config.JournalDir is set:
//     every landed shard is spilled atomically to the journal, and a
//     restarted coordinator resumes by loading valid journal shards and
//     re-dispatching only the uncovered ranges (see journal.go).
//   - A worker accumulating consecutive failed attempts is quarantined, not
//     killed: a circuit breaker probes its /healthz on a jittered doubling
//     backoff and re-admits it when healthy — after re-checking identity, so
//     a worker restarted with a different build is rejected rather than
//     merged. Only MaxProbes consecutive failed probes (or version skew)
//     make the death permanent; the run fails when no worker remains with
//     shards outstanding.
//   - Straggler hedging: when a shard attempt has been in flight longer than
//     a threshold (fixed via HedgeAfter, or derived from completed-shard
//     durations), the shard is speculatively queued for a second worker.
//     First valid document wins and cancels the loser. Determinism is free —
//     both copies would produce identical bytes.
//   - Application errors (4xx, identity mismatches) are deterministic —
//     retrying them elsewhere cannot help — and abort the run.
//   - The faults site "dist.shard" (faults.SiteDistShard) injects dispatch
//     failures deterministically, exercising the reassignment path in tests
//     without killing processes; injected failures do not count toward a
//     worker's quarantine threshold. The client-level sites
//     ("client.latency", "client.blackhole") simulate slow links and
//     partitions underneath the coordinator.
package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"rayfade/internal/client"
	"rayfade/internal/faults"
	"rayfade/internal/obs"
	"rayfade/internal/progress"
	"rayfade/internal/rng"
	"rayfade/internal/server"
	"rayfade/internal/sim"
	"rayfade/internal/version"
)

// Config shapes a coordinator. Zero fields take the documented defaults.
type Config struct {
	// Workers are the base URLs of the rayschedd instances to shard across.
	// At least one is required.
	Workers []string
	// ShardSize is the replication count per shard; <= 0 selects
	// ceil(reps / (4 · workers)), min 1 — about four waves per worker, small
	// enough that losing a worker forfeits little progress, large enough to
	// amortize dispatch overhead.
	ShardSize int
	// LeaseTimeout bounds one dispatch attempt (including the client's
	// retries within it); a missed lease requeues the shard. <= 0 selects 2m.
	LeaseTimeout time.Duration
	// MaxAttempts caps dispatch attempts per shard across all workers;
	// <= 0 selects 4.
	MaxAttempts int
	// DeadAfter is the number of consecutive failed attempts after which a
	// worker is quarantined (probed for re-admission, not abandoned);
	// <= 0 selects 2.
	DeadAfter int
	// JournalDir, when non-empty, enables the shard journal: every landed
	// shard is atomically spilled there, and Run first loads valid shards
	// for the same run identity and re-dispatches only uncovered ranges.
	JournalDir string
	// HedgeAfter tunes straggler hedging. Zero (the default) derives the
	// threshold adaptively: 3x the median completed-shard duration, armed
	// once 3 shards have completed, floored at 250ms. A positive value is a
	// fixed threshold; negative disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the base interval between quarantine health probes
	// (jittered, doubling per consecutive failed probe, capped at 16x);
	// <= 0 selects 2s.
	ProbeInterval time.Duration
	// MaxProbes is how many consecutive failed probes turn quarantine into
	// permanent death; <= 0 selects 8.
	MaxProbes int
	// Client is the retry-policy template for per-worker clients; BaseURL
	// and JitterSeed are overridden per worker (distinct seeds, so workers'
	// backoff schedules do not herd).
	Client client.Config
	// Log receives coordinator events (dispatches, reassignments, hedges,
	// quarantine transitions). Nil discards.
	Log *slog.Logger
	// Tracker, when non-nil, aggregates cluster-wide progress: the
	// coordinator adds the run's replication total up front and marks a
	// whole shard's replications done as each shard document lands (journal
	// restores count immediately), so one local Tracker carries the ETA for
	// work executing remotely.
	Tracker *progress.Tracker
	// Now and Sleep are the coordinator's clock; nil selects the real one.
	// Tests inject a fake so quarantine backoff and hedge sweeps run without
	// wall-clock waits.
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 2 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.MaxProbes <= 0 {
		c.MaxProbes = 8
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c
}

// sleepCtx is context-aware time.Sleep.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Job describes one distributed run. The coordinator is experiment-agnostic:
// the request builder closes over the experiment parameters, and the
// identity triple is what every returned shard is validated against.
type Job struct {
	// Experiment and ConfigSHA identify the run (sim checkpoint identity).
	Experiment string
	ConfigSHA  string
	// Reps is the replication count; shards partition [0, Reps).
	Reps int
	// NewRequest marshals the POST /v1/shard body for range [lo, hi).
	NewRequest func(lo, hi int) ([]byte, error)
}

// WorkerInfo is what Discover learns about one live worker.
type WorkerInfo struct {
	URL        string
	Instance   string
	Version    string
	GoMaxProcs int
}

// Stats summarizes a completed (or failed) Run.
type Stats struct {
	// Shards is the partition size (journal restores included); Completed
	// counts shard documents dispatched and merged this run. On success
	// Resumed + Completed == Shards.
	Shards    int
	Completed int
	// Resumed counts shards restored from the journal instead of dispatched.
	Resumed int
	// Reassigned counts dispatch attempts that failed and sent the shard
	// back to the queue (lease expiry, transport failure, injected fault).
	Reassigned int
	// Hedged counts shards speculatively dispatched to a second worker
	// because the first attempt exceeded the straggler threshold.
	Hedged int
	// Quarantined counts quarantine entries (a worker can re-enter);
	// Readmitted counts quarantines that ended in re-admission.
	Quarantined int
	Readmitted  int
	// DeadWorkers counts workers whose quarantine became permanent death
	// (probe budget exhausted, or identity re-check failed).
	DeadWorkers int
}

// Coordinator drives distributed runs against a fixed worker set.
type Coordinator struct {
	cfg Config
	log *slog.Logger
}

// New validates cfg and builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("dist: no workers configured")
	}
	cfg = cfg.withDefaults()
	log := cfg.Log
	if log == nil {
		log = obs.Discard()
	}
	return &Coordinator{cfg: cfg, log: log}, nil
}

// Discover probes every worker's /healthz and returns the live ones. Dead
// workers are tolerated (logged) as long as at least one answers; a live
// worker running a different build than the coordinator is an error, because
// byte-identity across the cluster assumes identical code. A draining worker
// is skipped like a dead one — it is refusing new work on purpose.
func (c *Coordinator) Discover(ctx context.Context) ([]WorkerInfo, error) {
	httpClient := c.cfg.Client.HTTPClient
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	var live []WorkerInfo
	for _, url := range c.cfg.Workers {
		h, err := fetchHealth(ctx, httpClient, url)
		if err != nil {
			c.log.Warn("dist: worker unreachable", "worker", url, "err", err.Error())
			continue
		}
		if h.Status != "ok" {
			c.log.Warn("dist: worker unhealthy", "worker", url, "status", h.Status)
			continue
		}
		if h.Version != version.Version {
			return nil, fmt.Errorf("dist: worker %s runs version %q, coordinator is %q — shard bytes would not be comparable",
				url, h.Version, version.Version)
		}
		live = append(live, WorkerInfo{URL: url, Instance: h.Instance, Version: h.Version, GoMaxProcs: h.GoMaxProcs})
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("dist: none of the %d configured workers is reachable", len(c.cfg.Workers))
	}
	return live, nil
}

// fetchHealth GETs and decodes one worker's /healthz.
func fetchHealth(ctx context.Context, httpClient *http.Client, baseURL string) (server.Health, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return server.Health{}, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return server.Health{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.Health{}, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	var h server.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return server.Health{}, err
	}
	return h, nil
}

// shardTask is one shard's scheduling state, guarded by run.mu. Attempt
// counting lives here — the task survives reassignment across workers, so
// the cap is global. A task may be in flight on two workers at once (the
// hedge); done flips exactly once, when the first valid document lands, and
// cancels holds the in-flight attempts' cancel functions so the winner can
// cut the loser loose.
type shardTask struct {
	lo, hi   int
	attempts int
	inflight int
	hedged   bool
	done     bool
	started  time.Time
	cancels  []context.CancelFunc
}

// outcome classifies one dispatch attempt.
type outcome int

const (
	// outcomeOK: the shard document was received, validated, and recorded.
	outcomeOK outcome = iota
	// outcomeTransient: the attempt failed in a way another attempt may fix
	// (lease expiry, transport failure, corrupt transfer). Counts toward the
	// worker's consecutive-failure quarantine threshold.
	outcomeTransient
	// outcomeInjected: a deterministic chaos fault burned the attempt. The
	// shard requeues but the worker's health is not implicated.
	outcomeInjected
	// outcomeCancelled: the attempt's context ended mid-flight — either the
	// whole run ended, or a hedged twin won and cancelled this copy.
	outcomeCancelled
	// outcomeFatal: a deterministic failure (4xx, identity mismatch); the
	// run must abort.
	outcomeFatal
)

// shardSize resolves the effective shard size for a run.
func (c *Coordinator) shardSize(reps int) int {
	size := c.cfg.ShardSize
	if size <= 0 {
		waves := 4 * len(c.cfg.Workers)
		size = (reps + waves - 1) / waves
	}
	if size < 1 {
		size = 1
	}
	return size
}

// run is one Run invocation's shared state. Everything below mu is guarded
// by it; queue capacity is sized so no sender ever blocks (each task has at
// most two live copies — original and hedge — plus per-worker cancel
// returns).
type run struct {
	c       *Coordinator
	job     Job
	journal *journal

	queue chan *shardTask

	mu        sync.Mutex
	stats     Stats
	shards    []*sim.Shard
	tasks     []*shardTask
	remaining int
	alive     int
	durations []time.Duration
	runErr    error

	done     chan struct{}
	doneOnce sync.Once
	cancel   context.CancelFunc
}

// Run executes job across the worker set and returns the merged
// per-replication results (the input to sim.WriteMergedCheckpoint) plus run
// statistics. The stats are valid even when err is non-nil.
func (c *Coordinator) Run(ctx context.Context, job Job) (map[int]json.RawMessage, Stats, error) {
	if job.Reps <= 0 {
		return nil, Stats{}, fmt.Errorf("dist: job with %d replications", job.Reps)
	}
	if job.NewRequest == nil {
		return nil, Stats{}, errors.New("dist: job has no request builder")
	}

	r := &run{c: c, job: job, done: make(chan struct{})}

	// Resume before partitioning: journal shards subtract from the index
	// space, and only the uncovered gaps become dispatchable tasks.
	var restored []*sim.Shard
	if c.cfg.JournalDir != "" {
		j, err := openJournal(c.cfg.JournalDir)
		if err != nil {
			return nil, Stats{}, err
		}
		r.journal = j
		restored = j.load(job, c.log)
	}
	size := c.shardSize(job.Reps)
	r.tasks = uncoveredTasks(job.Reps, size, restored)
	r.shards = append(r.shards, restored...)
	r.stats.Resumed = len(restored)
	r.stats.Shards = len(r.tasks) + len(restored)
	r.remaining = len(r.tasks)
	r.alive = len(c.cfg.Workers)

	c.cfg.Tracker.AddTotal(job.Reps)
	restoredReps := 0
	for _, sh := range restored {
		restoredReps += sh.Hi - sh.Lo
	}
	c.cfg.Tracker.AddDone(restoredReps)
	c.log.Info("dist: run starting",
		"experiment", job.Experiment, "reps", job.Reps,
		"shards", r.stats.Shards, "resumed", r.stats.Resumed,
		"shard_size", size, "workers", len(c.cfg.Workers))

	if r.remaining == 0 {
		// The journal already covers the whole run; nothing to dispatch.
		return r.finish(ctx)
	}

	r.queue = make(chan *shardTask, 2*len(r.tasks)+len(c.cfg.Workers))
	for _, task := range r.tasks {
		r.queue <- task
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.cancel = cancel

	var wg sync.WaitGroup
	if c.cfg.HedgeAfter >= 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.hedgeMonitor(ctx)
		}()
	}
	for i, url := range c.cfg.Workers {
		seed := c.cfg.Client.JitterSeed
		if seed == 0 {
			seed = 1
		}
		ccfg := c.cfg.Client
		ccfg.BaseURL = url
		ccfg.JitterSeed = seed + uint64(i)
		w := &workerLoop{
			coord:  c,
			url:    url,
			client: client.New(ccfg),
			// An independent jitter stream per worker so probe schedules do
			// not herd; offset past the client seeds for stream separation.
			probeJitter: rng.New(seed + uint64(i) + 0x9e37),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx, r)
			r.mu.Lock()
			if w.dead {
				r.stats.DeadWorkers++
			}
			r.alive--
			// A run that was cancelled reports its cause, not worker failure.
			lastWorker := r.alive == 0 && r.remaining > 0 && ctx.Err() == nil
			outstanding := r.remaining
			r.mu.Unlock()
			if lastWorker {
				r.fail(fmt.Errorf("dist: all %d workers failed with %d shards outstanding",
					len(c.cfg.Workers), outstanding))
			}
		}()
	}

	select {
	case <-r.done:
		cancel() // release the idle worker loops and the hedge monitor
	case <-ctx.Done():
	}
	wg.Wait()
	return r.finish(ctx)
}

// uncoveredTasks partitions the index ranges restored does not cover into
// dispatchable tasks of at most size replications. restored must be sorted
// by Lo and non-overlapping (journal.load guarantees both).
func uncoveredTasks(reps, size int, restored []*sim.Shard) []*shardTask {
	var tasks []*shardTask
	addRange := func(lo, hi int) {
		for ; lo < hi; lo += size {
			end := lo + size
			if end > hi {
				end = hi
			}
			tasks = append(tasks, &shardTask{lo: lo, hi: end})
		}
	}
	next := 0
	for _, sh := range restored {
		addRange(next, sh.Lo)
		next = sh.Hi
	}
	addRange(next, reps)
	return tasks
}

// finish merges the collected shards and reports the final stats.
func (r *run) finish(ctx context.Context) (map[int]json.RawMessage, Stats, error) {
	r.mu.Lock()
	err := r.runErr
	merged := append([]*sim.Shard(nil), r.shards...)
	finalStats := r.stats
	outstanding := r.remaining
	r.mu.Unlock()
	if err != nil {
		return nil, finalStats, err
	}
	if cerr := context.Cause(ctx); cerr != nil && outstanding > 0 {
		return nil, finalStats, cerr
	}
	results, err := sim.MergeShards(r.job.Experiment, r.job.ConfigSHA, r.job.Reps, merged)
	if err != nil {
		return nil, finalStats, err
	}
	r.c.log.Info("dist: run complete",
		"shards", finalStats.Shards, "resumed", finalStats.Resumed,
		"reassigned", finalStats.Reassigned, "hedged", finalStats.Hedged,
		"quarantined", finalStats.Quarantined, "readmitted", finalStats.Readmitted,
		"dead_workers", finalStats.DeadWorkers)
	return results, finalStats, nil
}

// fail records the first fatal error and cancels the run.
func (r *run) fail(err error) {
	r.mu.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (r *run) closeDone() {
	r.doneOnce.Do(func() { close(r.done) })
}

// claim registers one dispatch attempt for task: a per-attempt cancellable
// context (so a hedge winner can cut this attempt loose) and the global
// attempt count. ok is false when the task already completed — a stale queue
// copy to be dropped.
func (r *run) claim(ctx context.Context, task *shardTask) (actx context.Context, attemptN int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if task.done {
		return nil, 0, false
	}
	actx, cancel := context.WithCancel(ctx)
	task.cancels = append(task.cancels, cancel)
	if task.inflight == 0 {
		// The straggler clock starts at first dispatch and is not reset by
		// the hedge — the threshold measures how long the shard has been
		// owed, not how long one copy has run.
		task.started = r.c.cfg.Now()
	}
	task.inflight++
	task.attempts++
	return actx, task.attempts, true
}

// release unwinds one attempt's claim and reports whether the task completed
// while (or before) this attempt ran — in which case the attempt's outcome
// is superseded and must not touch worker health or reassignment counts.
func (r *run) release(task *shardTask) (superseded bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	task.inflight--
	return task.done
}

// record admits one validated shard document: first into the journal (crash
// safety before in-memory state), then into the merge set. The first copy
// wins; a hedged twin landing second is dropped here (the bytes are
// identical by determinism, so nothing is lost). The winner cancels every
// other in-flight attempt for the task.
func (r *run) record(task *shardTask, sh *sim.Shard) {
	if r.journal != nil {
		if err := r.journal.record(sh); err != nil {
			// Journal loss degrades crash safety, not correctness: the run
			// continues, and a crash would recompute this range.
			r.c.log.Warn("dist: journal write failed",
				"lo", sh.Lo, "hi", sh.Hi, "err", err.Error())
		}
	}
	r.mu.Lock()
	if task.done {
		r.mu.Unlock()
		return
	}
	task.done = true
	cancels := task.cancels
	task.cancels = nil
	r.shards = append(r.shards, sh)
	r.stats.Completed++
	r.durations = append(r.durations, r.c.cfg.Now().Sub(task.started))
	r.remaining--
	last := r.remaining == 0
	r.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	r.c.cfg.Tracker.AddDone(task.hi - task.lo)
	if last {
		r.closeDone()
	}
}

// requeue returns a failed task to the pool, or aborts the run when its
// attempt budget is spent. A task that completed in the meantime (hedge
// winner) is dropped silently — its failure is moot.
func (r *run) requeue(task *shardTask, cause error) {
	r.mu.Lock()
	if task.done {
		r.mu.Unlock()
		return
	}
	r.stats.Reassigned++
	exhausted := task.attempts >= r.c.cfg.MaxAttempts
	if !exhausted {
		r.queue <- task
	}
	r.mu.Unlock()
	if exhausted {
		r.fail(fmt.Errorf("dist: shard [%d,%d) failed %d attempts: %w",
			task.lo, task.hi, task.attempts, cause))
	}
}

// hedgeThreshold resolves the current straggler threshold; 0 means hedging
// is not yet armed (adaptive mode with too few completions).
func (r *run) hedgeThreshold() time.Duration {
	if r.c.cfg.HedgeAfter > 0 {
		return r.c.cfg.HedgeAfter
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.durations) < 3 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.durations...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	th := 3 * sorted[len(sorted)/2]
	if th < 250*time.Millisecond {
		th = 250 * time.Millisecond
	}
	return th
}

// hedgeMonitor periodically sweeps in-flight tasks and queues a speculative
// second dispatch for any that exceeded the straggler threshold. At most one
// hedge per task: a straggler that stalls its hedge too is already at two
// workers, and a third copy only steals capacity from fresh shards.
func (r *run) hedgeMonitor(ctx context.Context) {
	for {
		interval := 100 * time.Millisecond
		if fixed := r.c.cfg.HedgeAfter; fixed > 0 {
			interval = fixed / 4
			if interval < 5*time.Millisecond {
				interval = 5 * time.Millisecond
			}
			if interval > time.Second {
				interval = time.Second
			}
		}
		if err := r.c.cfg.Sleep(ctx, interval); err != nil {
			return
		}
		th := r.hedgeThreshold()
		if th <= 0 {
			continue
		}
		now := r.c.cfg.Now()
		r.mu.Lock()
		for _, task := range r.tasks {
			if task.done || task.hedged || task.inflight < 1 {
				continue
			}
			if now.Sub(task.started) < th {
				continue
			}
			task.hedged = true
			r.stats.Hedged++
			r.queue <- task
			r.c.log.Info("dist: hedging straggler shard",
				"lo", task.lo, "hi", task.hi, "threshold", th.String())
		}
		idle := r.remaining == 0
		r.mu.Unlock()
		if idle {
			return
		}
	}
}

// workerLoop is one worker's dispatch goroutine state.
type workerLoop struct {
	coord       *Coordinator
	url         string
	client      *client.Client
	probeJitter *rng.Source
	instance    string // last known /healthz instance; set on re-admission
	fails       int    // consecutive transient failures
	dead        bool   // permanent death: probe budget spent or identity skew
}

// run pulls shards off the queue until the context ends or the worker dies
// permanently. Transient failures accumulate toward quarantine; quarantine
// probes /healthz until the worker is re-admitted or declared dead.
func (w *workerLoop) run(ctx context.Context, r *run) {
	for {
		var task *shardTask
		select {
		case <-ctx.Done():
			return
		case task = <-r.queue:
		}
		actx, attemptN, ok := r.claim(ctx, task)
		if !ok {
			continue // stale queue copy of a completed task
		}
		sh, out, err := w.attempt(actx, r.job, task, attemptN)
		superseded := r.release(task)
		switch out {
		case outcomeOK:
			w.fails = 0
			r.record(task, sh)
		case outcomeInjected:
			if superseded {
				continue
			}
			w.coord.log.Warn("dist: injected dispatch fault",
				"worker", w.url, "lo", task.lo, "hi", task.hi, "attempt", attemptN)
			r.requeue(task, err)
		case outcomeTransient:
			if superseded {
				continue
			}
			w.fails++
			w.coord.log.Warn("dist: shard attempt failed",
				"worker", w.url, "lo", task.lo, "hi", task.hi,
				"attempt", attemptN, "err", err.Error())
			r.requeue(task, err)
			if w.fails >= w.coord.cfg.DeadAfter && !w.quarantine(ctx, r) {
				return
			}
		case outcomeCancelled:
			if ctx.Err() != nil {
				// The run ended. Return the task so the accounting stays
				// consistent if another path (not cancellation) raced us;
				// the queue has capacity.
				if !superseded {
					r.queue <- task
				}
				return
			}
			// The attempt context alone was cancelled: a hedged twin won.
			// Nothing to requeue, and the worker is healthy.
		case outcomeFatal:
			if superseded {
				continue
			}
			r.fail(err)
			return
		}
	}
}

// quarantine is the circuit breaker's open state: probe the worker's
// /healthz on a jittered doubling backoff until it answers healthy (true —
// re-admitted, failure count reset) or the probe budget is spent or its
// identity fails re-validation (false, with w.dead set). The run ending
// mid-quarantine also returns false but is no verdict on the worker, so
// w.dead stays unset. Probes use a plain HTTP client, not the retrying one,
// so armed client-level chaos (blackhole/latency) shapes dispatches without
// starving the probes.
func (w *workerLoop) quarantine(ctx context.Context, r *run) bool {
	r.mu.Lock()
	r.stats.Quarantined++
	r.mu.Unlock()
	cfg := w.coord.cfg
	w.coord.log.Warn("dist: worker quarantined",
		"worker", w.url, "consecutive_failures", w.fails, "probe_interval", cfg.ProbeInterval.String())
	httpClient := cfg.Client.HTTPClient
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	backoff := cfg.ProbeInterval
	for probe := 0; probe < cfg.MaxProbes; probe++ {
		// Full jitter over the current backoff, floored at a quarter of it
		// so a probe never fires immediately after the failure that
		// scheduled it.
		d := time.Duration(w.probeJitter.Float64() * float64(backoff))
		if d < backoff/4 {
			d = backoff / 4
		}
		if err := cfg.Sleep(ctx, d); err != nil {
			return false
		}
		h, err := fetchHealth(ctx, httpClient, w.url)
		if ctx.Err() != nil {
			return false
		}
		if err != nil || h.Status != "ok" {
			status := "unreachable"
			if err == nil {
				status = h.Status
			}
			w.coord.log.Warn("dist: quarantine probe failed",
				"worker", w.url, "probe", probe+1, "status", status)
			backoff *= 2
			if limit := 16 * cfg.ProbeInterval; backoff > limit {
				backoff = limit
			}
			continue
		}
		// Identity re-check on re-admission: a worker that came back with a
		// different build would return shards the merge cannot trust.
		if h.Version != version.Version {
			w.coord.log.Error("dist: re-admission refused: version skew",
				"worker", w.url, "worker_version", h.Version, "coordinator_version", version.Version)
			w.dead = true
			return false
		}
		if w.instance != "" && h.Instance != w.instance {
			w.coord.log.Info("dist: worker restarted while quarantined",
				"worker", w.url, "old_instance", w.instance, "new_instance", h.Instance)
		}
		w.instance = h.Instance
		w.fails = 0
		r.mu.Lock()
		r.stats.Readmitted++
		r.mu.Unlock()
		w.coord.log.Info("dist: worker re-admitted", "worker", w.url, "probes", probe+1)
		return true
	}
	w.coord.log.Warn("dist: worker declared dead",
		"worker", w.url, "probes", cfg.MaxProbes)
	w.dead = true
	return false
}

// attempt dispatches one shard to this worker under a lease and classifies
// the result. On outcomeOK the returned shard is validated against the job
// identity and the requested range.
func (w *workerLoop) attempt(ctx context.Context, job Job, task *shardTask, attemptN int) (*sim.Shard, outcome, error) {
	// Keep the span's ctx: the client call below derives its lease from it,
	// so the outbound request carries this span as the remote parent in its
	// X-Trace-Context header and the worker's spans stitch under it.
	sctx, sp := obs.StartDetached(ctx, "dist.shard")
	sp.SetAttr("worker", w.url)
	sp.SetAttr("lo", task.lo)
	sp.SetAttr("hi", task.hi)
	sp.SetAttr("attempt", attemptN)
	result := "ok"
	defer func() {
		sp.SetAttr("outcome", result)
		sp.End()
	}()

	// Chaos hook: an injected error burns this attempt — the shard requeues
	// exactly as if the dispatch had failed on the wire.
	if ferr := faults.Inject(faults.SiteDistShard); ferr != nil {
		result = "injected"
		return nil, outcomeInjected, ferr
	}

	body, berr := job.NewRequest(task.lo, task.hi)
	if berr != nil {
		result = "fatal"
		return nil, outcomeFatal, fmt.Errorf("dist: build shard request [%d,%d): %w", task.lo, task.hi, berr)
	}
	lease, cancel := context.WithTimeout(sctx, w.coord.cfg.LeaseTimeout)
	defer cancel()
	resp, status, perr := w.client.PostJSON(lease, "/v1/shard", body)
	switch {
	case perr != nil && ctx.Err() != nil:
		result = "cancelled"
		return nil, outcomeCancelled, ctx.Err()
	case perr != nil:
		// Transport failure, exhausted retry budget, or lease expiry: the
		// lease is released and the shard goes back to the pool.
		result = "lease"
		return nil, outcomeTransient, fmt.Errorf("dist: worker %s: %w", w.url, perr)
	}
	if status != http.StatusOK {
		// Terminal application status (the client already retried the
		// retryable ones): deterministic, another worker would answer the
		// same. Abort.
		result = "fatal"
		return nil, outcomeFatal, fmt.Errorf("dist: worker %s answered %d for shard [%d,%d): %s",
			w.url, status, task.lo, task.hi, firstLine(resp))
	}
	decoded, derr := sim.DecodeShard(resp)
	if derr != nil {
		// A corrupt document may be a mangled transfer; let another attempt
		// try rather than aborting the run.
		result = "corrupt"
		return nil, outcomeTransient, fmt.Errorf("dist: worker %s shard [%d,%d): %w", w.url, task.lo, task.hi, derr)
	}
	if decoded.Experiment != job.Experiment || decoded.ConfigSHA != job.ConfigSHA ||
		decoded.Reps != job.Reps || decoded.Lo != task.lo || decoded.Hi != task.hi {
		// Identity mismatch means the worker computed a different run —
		// wrong build or wrong parameters. Deterministic; abort.
		result = "fatal"
		return nil, outcomeFatal, fmt.Errorf("dist: worker %s returned a shard for a different run: experiment %q sha %.12s… reps %d range [%d,%d), want %q %.12s… %d [%d,%d)",
			w.url, decoded.Experiment, decoded.ConfigSHA, decoded.Reps, decoded.Lo, decoded.Hi,
			job.Experiment, job.ConfigSHA, job.Reps, task.lo, task.hi)
	}
	w.coord.log.Info("dist: shard complete",
		"worker", w.url, "lo", task.lo, "hi", task.hi, "attempt", attemptN)
	return decoded, outcomeOK, nil
}

// firstLine trims a response body to its first line for error messages.
func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			b = b[:i]
			break
		}
	}
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}
