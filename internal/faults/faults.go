// Package faults is the repo's deterministic fault-injection layer: named
// injection sites threaded through the worker pool, the HTTP handlers, the
// file-write path, and the simulation replication bodies, each of which can
// be armed with a probabilistic fault (panic, delay, transient error,
// partial write) from a -faults spec string.
//
// Design constraints, mirroring internal/obs:
//
//  1. Zero-cost no-op when disabled. Instrumented code calls
//     faults.Inject(site) unconditionally; with no injector installed the
//     call is one atomic load and a nil return — no allocation, no lock.
//     This is what keeps the 0 allocs/op kernel benchmarks at 0 and lets
//     the sites stay compiled into production binaries.
//  2. Deterministic. Every fault decision is drawn from a split rng.Source
//     seeded by the spec (never from the experiment streams), so a chaos
//     run is reproducible: the same spec and seed arm the same per-site
//     decision sequence. Under concurrency the assignment of decisions to
//     goroutines still depends on scheduling — what is pinned is the
//     per-site sequence, which suffices to replay "roughly this fault
//     density at this site".
//  3. Observable. The injector counts every fired fault per site and kind
//     (Snapshot), so chaos tests can assert that faults actually fired and
//     CLIs can print a summary.
//
// Spec grammar (comma-separated clauses):
//
//	spec   := clause ("," clause)*
//	clause := "seed=" uint64
//	        | site "=" kind ":" prob [":" param]
//	kind   := "panic" | "delay" | "error" | "partial"
//	prob   := float in [0,1]
//	param  := duration (delay, default 1ms)
//	        | fraction in [0,1) of bytes written before failing (partial, default 0.5)
//
// Example: "seed=7,pool.job=panic:0.05,server.handler=error:0.2,fsio.write=partial:0.1"
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rayfade/internal/rng"
)

// Canonical site names. Sites are plain strings so downstream code can add
// its own, but the threaded-through sites use these constants to keep specs
// and call sites from drifting apart.
const (
	// SitePoolJob fires as a pool worker picks up a job, before the job
	// body runs (server.Pool).
	SitePoolJob = "pool.job"
	// SiteHandler fires at the top of every /v1 compute request pipeline
	// (internal/server).
	SiteHandler = "server.handler"
	// SiteFileWrite fires inside the atomic file-write path
	// (internal/fsio); kind "partial" writes a prefix of the temp file and
	// fails before the rename, simulating a crash mid-write.
	SiteFileWrite = "fsio.write"
	// SiteReplication fires at the start of every sim.ParallelCtx
	// replication body. Kinds "panic" and "error" both escalate to a panic
	// there (a replication has no error channel) — the crash the
	// checkpoint/resume machinery exists to survive.
	SiteReplication = "sim.replication"
	// SiteCheckpoint fires before each checkpoint flush (internal/sim),
	// upstream of the fsio partial-write site.
	SiteCheckpoint = "sim.checkpoint"
	// SiteDistShard fires in the coordinator as it is about to dispatch a
	// shard to a worker (internal/dist). Kind "error" simulates a failed
	// dispatch: the shard's lease is released and it is reassigned — the
	// same path a dead worker exercises, made deterministic for tests.
	SiteDistShard = "dist.shard"
	// SiteClientLatency fires before every HTTP attempt in internal/client.
	// Kind "delay" simulates a slow link: the client applies the returned
	// delay through its injectable Sleep (via Check), so chaos tests advance
	// a fake clock instead of really sleeping. Kind "error" behaves like a
	// blackhole on this attempt.
	SiteClientLatency = "client.latency"
	// SiteClientBlackhole fires before every HTTP attempt in internal/client.
	// Kind "error" simulates a network partition: the attempt fails before
	// reaching the wire and is retried per the client's policy — the
	// deterministic stand-in for pulling a worker's cable, driving the
	// coordinator's lease-reassignment and quarantine paths in tests.
	SiteClientBlackhole = "client.blackhole"
)

// Kind enumerates the injectable faults.
type Kind uint8

const (
	KindPanic Kind = iota
	KindDelay
	KindError
	KindPartial
)

// String names the kind as it appears in specs and snapshots.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindError:
		return "error"
	case KindPartial:
		return "partial"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// ErrInjected is the sentinel wrapped by every injected transient error, so
// callers (and tests) can classify failures with errors.Is.
var ErrInjected = errors.New("faults: injected transient error")

// rule is one armed fault on a site.
type rule struct {
	kind  Kind
	prob  float64
	delay time.Duration // KindDelay
	frac  float64       // KindPartial: fraction of bytes written before failing
	fired atomic.Uint64
}

// site holds one injection point's rules and its private RNG stream. The
// mutex serializes draws so the per-site decision sequence is well-defined
// even when many goroutines hit the site.
type site struct {
	mu    sync.Mutex
	src   *rng.Source
	rules []*rule
}

// Injector is a parsed fault plan. A nil *Injector is a valid "injection
// off" value everywhere.
type Injector struct {
	seed  uint64
	sites map[string]*site
}

// Parse builds an Injector from a spec string (see the package comment for
// the grammar). An empty spec yields an error — use SetDefault(nil) to
// disable injection.
func Parse(spec string) (*Injector, error) {
	inj := &Injector{seed: 1, sites: make(map[string]*site)}
	type parsed struct {
		site string
		r    *rule
	}
	var rules []parsed
	clauses := strings.Split(spec, ",")
	armed := false
	for _, clause := range clauses {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not site=kind:prob[:param] or seed=N", clause)
		}
		name = strings.TrimSpace(name)
		if name == "seed" {
			seed, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", rest, err)
			}
			inj.seed = seed
			continue
		}
		parts := strings.Split(rest, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("faults: clause %q wants kind:prob[:param]", clause)
		}
		r := &rule{}
		switch parts[0] {
		case "panic":
			r.kind = KindPanic
		case "delay":
			r.kind = KindDelay
			r.delay = time.Millisecond
		case "error":
			r.kind = KindError
		case "partial":
			r.kind = KindPartial
			r.frac = 0.5
		default:
			return nil, fmt.Errorf("faults: unknown kind %q (want panic, delay, error, or partial)", parts[0])
		}
		prob, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || prob < 0 || prob > 1 || prob != prob {
			return nil, fmt.Errorf("faults: probability %q outside [0,1]", parts[1])
		}
		r.prob = prob
		if len(parts) == 3 {
			switch r.kind {
			case KindDelay:
				d, err := time.ParseDuration(parts[2])
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faults: bad delay %q", parts[2])
				}
				r.delay = d
			case KindPartial:
				f, err := strconv.ParseFloat(parts[2], 64)
				if err != nil || f < 0 || f >= 1 || f != f {
					return nil, fmt.Errorf("faults: partial fraction %q outside [0,1)", parts[2])
				}
				r.frac = f
			default:
				return nil, fmt.Errorf("faults: kind %q takes no parameter (clause %q)", parts[0], clause)
			}
		}
		rules = append(rules, parsed{site: name, r: r})
		armed = true
	}
	if !armed {
		return nil, errors.New("faults: spec arms no site (did you mean to omit -faults?)")
	}
	// Site streams are derived after the seed is known, whichever clause
	// order the spec used: seed ^ FNV(site) re-keys each site independently,
	// so adding a site to a spec does not shift another site's sequence.
	for _, p := range rules {
		s, ok := inj.sites[p.site]
		if !ok {
			h := fnv.New64a()
			h.Write([]byte(p.site))
			s = &site{src: rng.New(inj.seed ^ h.Sum64())}
			inj.sites[p.site] = s
		}
		s.rules = append(s.rules, p.r)
	}
	return inj, nil
}

// defaultInjector is the process-wide injector observed by the package-level
// helpers; nil means injection is off (the production default).
var defaultInjector atomic.Pointer[Injector]

// SetDefault installs (or, with nil, removes) the process-default injector.
func SetDefault(inj *Injector) {
	if inj == nil {
		defaultInjector.Store(nil)
		return
	}
	defaultInjector.Store(inj)
}

// Default returns the process-default injector, or nil.
func Default() *Injector { return defaultInjector.Load() }

// Inject evaluates the named site's panic/delay/error rules on the
// process-default injector: a firing delay sleeps, a firing panic panics
// (with a recognizable "faults: injected panic" message), and a firing
// error returns a wrapped ErrInjected. With no injector installed it is a
// single atomic load.
func Inject(siteName string) error {
	return defaultInjector.Load().Inject(siteName)
}

// PartialWrite evaluates the named site's partial-write rule on the
// process-default injector. When it fires it returns (prefix length, true):
// the caller must write only that prefix and fail without completing the
// operation. (0, false) means write normally.
func PartialWrite(siteName string, n int) (int, bool) {
	return defaultInjector.Load().PartialWrite(siteName, n)
}

// Check evaluates the named site's rules on the process-default injector
// like Inject, but returns any firing delay instead of sleeping it off, so
// callers with injectable clocks (internal/client) can apply the delay
// through their own Sleep. A firing panic rule still panics; a firing error
// rule is returned as a wrapped ErrInjected alongside the delay. With no
// injector installed it is a single atomic load.
func Check(siteName string) (time.Duration, error) {
	return defaultInjector.Load().Check(siteName)
}

// Inject is the method form of the package-level Inject; nil-safe.
func (inj *Injector) Inject(siteName string) error {
	d, err := inj.Check(siteName)
	if d > 0 {
		time.Sleep(d)
	}
	return err
}

// Check is the method form of the package-level Check; nil-safe.
func (inj *Injector) Check(siteName string) (time.Duration, error) {
	if inj == nil {
		return 0, nil
	}
	s, ok := inj.sites[siteName]
	if !ok {
		return 0, nil
	}
	var (
		sleep time.Duration
		act   *rule
	)
	s.mu.Lock()
	for _, r := range s.rules {
		if r.kind == KindPartial {
			continue // evaluated by PartialWrite only
		}
		if s.src.Float64() < r.prob {
			switch r.kind {
			case KindDelay:
				// Delays accumulate (several delay rules may fire on one
				// visit); panic/error act on the first firing rule.
				r.fired.Add(1)
				sleep += r.delay
			default:
				if act == nil {
					r.fired.Add(1)
					act = r
				}
			}
		}
	}
	s.mu.Unlock()
	if act == nil {
		return sleep, nil
	}
	switch act.kind {
	case KindPanic:
		panic(fmt.Sprintf("faults: injected panic at site %q", siteName))
	default:
		return sleep, fmt.Errorf("faults: site %q: %w", siteName, ErrInjected)
	}
}

// PartialWrite is the method form of the package-level PartialWrite;
// nil-safe.
func (inj *Injector) PartialWrite(siteName string, n int) (int, bool) {
	if inj == nil {
		return 0, false
	}
	s, ok := inj.sites[siteName]
	if !ok {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.rules {
		if r.kind != KindPartial {
			continue
		}
		if s.src.Float64() < r.prob {
			r.fired.Add(1)
			return int(float64(n) * r.frac), true
		}
	}
	return 0, false
}

// Snapshot returns the fired-fault tallies keyed "site/kind", for chaos
// assertions and CLI summaries. Nil-safe (nil map).
func (inj *Injector) Snapshot() map[string]uint64 {
	if inj == nil {
		return nil
	}
	out := make(map[string]uint64)
	for name, s := range inj.sites {
		for _, r := range s.rules {
			out[name+"/"+r.kind.String()] += r.fired.Load()
		}
	}
	return out
}

// Fired returns the total number of injected faults across all sites.
// Nil-safe (0). It has no production caller; it stays as the tally the
// chaos tests compare recovery counts against
// (TestClusterInjectedDispatchFaults).
func (inj *Injector) Fired() uint64 {
	var total uint64
	for _, n := range inj.Snapshot() {
		total += n
	}
	return total
}

// Summary renders the snapshot as one human line ("site/kind=n ..." sorted),
// or "no faults fired". Nil-safe.
func (inj *Injector) Summary() string {
	snap := inj.Snapshot()
	keys := make([]string, 0, len(snap))
	for k, n := range snap {
		if n > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "no faults fired"
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, snap[k])
	}
	return strings.Join(parts, " ")
}
