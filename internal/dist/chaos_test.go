package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rayfade/internal/faults"
	"rayfade/internal/server"
	"rayfade/internal/version"
)

// fakeClock is the injectable time source for chaos tests: Sleep advances
// the clock instead of waiting, so quarantine backoff and hedge sweeps run
// in microseconds of wall time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
	// Yield so goroutines whose work this sleep is "waiting for" get to run.
	runtime.Gosched()
	return ctx.Err()
}

// TestClusterQuarantineReadmissionUnderBlackhole drives the full circuit
// breaker deterministically: an armed client.blackhole partition fails every
// dispatch before it reaches the wire, workers cycle into quarantine, and
// health probes (which bypass the retrying client, as a control plane
// should) keep re-admitting them. After three probes the "partition heals"
// (the injector is disarmed) and the run completes byte-identically. All
// waiting goes through the fake clock — no real sleeps.
func TestClusterQuarantineReadmissionUnderBlackhole(t *testing.T) {
	w := testFigure1()
	clk := newFakeClock()
	inj, err := faults.Parse("seed=5,client.blackhole=error:1")
	if err != nil {
		t.Fatal(err)
	}
	faults.SetDefault(inj)
	t.Cleanup(func() { faults.SetDefault(nil) })

	var healthzHits atomic.Int64
	mkWorker := func() string {
		backend := server.New(server.Config{Workers: 2, QueueSize: 16})
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" && healthzHits.Add(1) >= 3 {
				faults.SetDefault(nil) // the partition heals
			}
			backend.ServeHTTP(rw, r)
		}))
		t.Cleanup(func() { ts.Close(); backend.Close() })
		return ts.URL
	}
	urls := []string{mkWorker(), mkWorker()}

	cc := fastClient()
	cc.MaxAttempts = 1 // one blackholed try per dispatch: quarantine fast
	cc.Sleep = clk.Sleep
	co, err := New(Config{
		Workers:       urls,
		ShardSize:     1,
		MaxAttempts:   100,
		DeadAfter:     1,
		ProbeInterval: 10 * time.Millisecond,
		MaxProbes:     50,
		HedgeAfter:    -1, // isolate the quarantine path
		Client:        cc,
		Now:           clk.Now,
		Sleep:         clk.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, stats := clusterCSV(t, co, w)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("quarantine cycling took %v of wall clock; the fake clock is not wired", elapsed)
	}
	if stats.Quarantined == 0 || stats.Readmitted == 0 {
		t.Fatalf("stats %+v: expected quarantine entries and re-admissions", stats)
	}
	if stats.Reassigned == 0 {
		t.Fatalf("stats %+v: blackholed dispatches must requeue their shards", stats)
	}
	if stats.DeadWorkers != 0 {
		t.Fatalf("stats %+v: healthy-on-probe workers must not die", stats)
	}
	if stats.Completed != 6 {
		t.Fatalf("stats %+v: run did not complete all shards", stats)
	}
	if want := singleNodeCSV(t, w); !bytes.Equal(got, want) {
		t.Fatal("cluster CSV after quarantine cycling differs from single-node run")
	}
}

// TestClusterRunEndDuringQuarantineIsNotDeath: a worker still quarantined
// when the run ends was never judged dead. The only worker fails its
// dispatch, enters quarantine, and the run is cancelled from its second
// failed health probe: the stats must show the quarantine, no dead worker,
// and the run must report the cancellation, not worker failure.
func TestClusterRunEndDuringQuarantineIsNotDeath(t *testing.T) {
	clk := newFakeClock()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var probes atomic.Int64
	sick := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && probes.Add(1) == 2 {
			cancel()
		}
		rw.Header().Set("Retry-After", "1")
		http.Error(rw, `{"error":"unavailable"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(sick.Close)

	cc := fastClient()
	cc.MaxAttempts = 1
	cc.Sleep = clk.Sleep
	co, err := New(Config{
		Workers:       []string{sick.URL},
		ShardSize:     1,
		MaxAttempts:   100,
		DeadAfter:     1,
		ProbeInterval: 10 * time.Millisecond,
		MaxProbes:     50,
		HedgeAfter:    -1,
		Client:        cc,
		Now:           clk.Now,
		Sleep:         clk.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := co.Run(ctx, testJob(t, testFigure1()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v, want context.Canceled", err)
	}
	if stats.Quarantined != 1 || stats.DeadWorkers != 0 {
		t.Fatalf("stats %+v: want one quarantine and no dead worker", stats)
	}
}

// TestClusterQuarantineRejectsVersionSkew: a worker that fails, quarantines,
// and then presents a different build version on its re-admission probe must
// be declared dead — merging its shards would break byte-identity. The run
// still completes on the healthy worker.
func TestClusterQuarantineRejectsVersionSkew(t *testing.T) {
	w := testFigure1()
	clk := newFakeClock()

	// The impostor: shard dispatches fail transiently (503 is retryable, and
	// the one-attempt client turns it into a transport-level failure), and
	// healthz advertises a skewed build.
	impostor := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			rw.Header().Set("Content-Type", "application/json")
			json.NewEncoder(rw).Encode(map[string]any{
				"status": "ok", "version": version.Version + "-skewed",
				"instance": "impostor-1", "gomaxprocs": 1,
			})
		default:
			rw.Header().Set("Retry-After", "1")
			http.Error(rw, `{"error":"unavailable"}`, http.StatusServiceUnavailable)
		}
	}))
	t.Cleanup(impostor.Close)

	// Gate: the healthy worker holds its first shard until the coordinator
	// has refused the impostor's re-admission. Otherwise the healthy worker
	// can drain the queue while the impostor is still in quarantine, and a
	// run that ends mid-quarantine declares nobody dead.
	refused := &logWatch{substr: "re-admission refused: version skew", hit: make(chan struct{})}
	backend := server.New(server.Config{Workers: 2, QueueSize: 16})
	healthy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard" {
			select {
			case <-refused.hit:
			case <-time.After(10 * time.Second): // fail the assertion, not the suite
			}
		}
		backend.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() { healthy.Close(); backend.Close() })

	cc := fastClient()
	cc.MaxAttempts = 1
	cc.Sleep = clk.Sleep
	co, err := New(Config{
		Workers:       []string{impostor.URL, healthy.URL},
		ShardSize:     1,
		MaxAttempts:   20,
		DeadAfter:     1,
		ProbeInterval: 10 * time.Millisecond,
		MaxProbes:     5,
		HedgeAfter:    -1,
		Client:        cc,
		Now:           clk.Now,
		Sleep:         clk.Sleep,
		Log:           slog.New(slog.NewTextHandler(refused, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats := clusterCSV(t, co, w)
	if stats.DeadWorkers != 1 {
		t.Fatalf("stats %+v: the skewed worker must die", stats)
	}
	if stats.Readmitted != 0 {
		t.Fatalf("stats %+v: a skewed worker must never be re-admitted", stats)
	}
	if stats.Quarantined == 0 {
		t.Fatalf("stats %+v: death must pass through quarantine", stats)
	}
	if want := singleNodeCSV(t, w); !bytes.Equal(got, want) {
		t.Fatal("cluster CSV with skewed worker differs from single-node run")
	}
}

// TestClusterHedgesStraggler: one worker swallows shard requests forever (a
// partitioned or wedged node whose TCP connection stays up). The hedge
// monitor must dispatch a speculative copy to the healthy worker, whose
// document wins; the straggler's attempt is cancelled, not failed, so
// nothing is reassigned. Time is fake throughout.
func TestClusterHedgesStraggler(t *testing.T) {
	w := testFigure1()
	w.Networks = 2 // two shards: one hangs, one flows
	clk := newFakeClock()

	// Gate: the healthy worker holds its first response until the straggler
	// has swallowed a request, so the straggler deterministically owns a
	// shard (otherwise the healthy worker could drain the whole queue first).
	gate := make(chan struct{})
	stop := make(chan struct{})
	var once sync.Once
	straggler := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard" {
			once.Do(func() { close(gate) })
			select {
			case <-r.Context().Done(): // swallowed until cancelled
			case <-stop: // test teardown backstop
			}
			return
		}
		http.NotFound(rw, r)
	}))
	t.Cleanup(straggler.Close)
	t.Cleanup(func() { close(stop) })

	backend := server.New(server.Config{Workers: 2, QueueSize: 16})
	healthy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard" {
			<-gate
		}
		backend.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() { healthy.Close(); backend.Close() })

	co, err := New(Config{
		Workers:    []string{straggler.URL, healthy.URL},
		ShardSize:  1,
		HedgeAfter: 50 * time.Millisecond,
		Client:     fastClient(),
		Now:        clk.Now,
		Sleep:      clk.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats := clusterCSV(t, co, w)
	if stats.Hedged == 0 {
		t.Fatalf("stats %+v: the stuck shard was never hedged", stats)
	}
	if stats.Completed != 2 {
		t.Fatalf("stats %+v: want both shards completed", stats)
	}
	if stats.Reassigned != 0 {
		t.Fatalf("stats %+v: a cancelled hedge loser must not count as reassignment", stats)
	}
	if want := singleNodeCSV(t, w); !bytes.Equal(got, want) {
		t.Fatal("hedged cluster CSV differs from single-node run")
	}
}

// TestClusterLatencyFaultThroughInjectableSleep: the client.latency chaos
// site must slow dispatches through the client's injectable Sleep — the run
// sees the delays (recorded), the wall clock does not.
func TestClusterLatencyFaultThroughInjectableSleep(t *testing.T) {
	w := testFigure1()
	inj, err := faults.Parse("seed=4,client.latency=delay:1:200ms")
	if err != nil {
		t.Fatal(err)
	}
	faults.SetDefault(inj)
	t.Cleanup(func() { faults.SetDefault(nil) })

	var slept atomic.Int64
	cc := fastClient()
	cc.Sleep = func(ctx context.Context, d time.Duration) error {
		if d == 200*time.Millisecond {
			slept.Add(1)
		}
		return ctx.Err()
	}
	co, err := New(Config{
		Workers:    startWorkers(t, 2),
		ShardSize:  1,
		HedgeAfter: -1,
		Client:     cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, stats := clusterCSV(t, co, w)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("latency faults cost %v of wall clock; they must flow through the injectable Sleep", elapsed)
	}
	if slept.Load() == 0 {
		t.Fatal("no injected latency reached the client's Sleep")
	}
	if stats.Completed != 6 {
		t.Fatalf("stats %+v: latency alone must not fail shards", stats)
	}
	if want := singleNodeCSV(t, w); !bytes.Equal(got, want) {
		t.Fatal("cluster CSV under latency faults differs from single-node run")
	}
}
