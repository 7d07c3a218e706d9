package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rayfade/internal/client"
	"rayfade/internal/faults"
	"rayfade/internal/progress"
	"rayfade/internal/server"
	"rayfade/internal/sim"
)

// testFigure1 is the experiment all cluster tests shard: small, but wide
// enough to split across three workers several times.
func testFigure1() server.Figure1ShardConfig {
	return server.Figure1ShardConfig{
		Networks: 6, Links: 12, TransmitSeeds: 2, FadingSeeds: 2,
		Points: 3, Seed: 31,
	}
}

// testJob builds the dist.Job for wire config w.
func testJob(t *testing.T, w server.Figure1ShardConfig) Job {
	t.Helper()
	sha, err := sim.Figure1ConfigSHA(w.SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Experiment: sim.ExperimentFigure1,
		ConfigSHA:  sha,
		Reps:       w.Networks,
		NewRequest: func(lo, hi int) ([]byte, error) {
			return json.Marshal(server.ShardRequest{
				Experiment: sim.ExperimentFigure1, Lo: lo, Hi: hi, Figure1: &w,
			})
		},
	}
}

// startWorkers brings up n in-process rayschedd instances.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		s := server.New(server.Config{Workers: 2, QueueSize: 16})
		ts := httptest.NewServer(s)
		t.Cleanup(func() { ts.Close(); s.Close() })
		urls[i] = ts.URL
	}
	return urls
}

// logWatch is a coordinator log sink that closes hit the first time a
// record containing substr is written.
type logWatch struct {
	substr string
	hit    chan struct{}
	once   sync.Once
}

func (l *logWatch) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(l.substr)) {
		l.once.Do(func() { close(l.hit) })
	}
	return len(p), nil
}

// fastClient is a retry config that keeps tests snappy.
func fastClient() client.Config {
	return client.Config{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// singleNodeCSV renders the experiment's artifact without any cluster in the
// loop — the bytes every distributed variant must reproduce.
func singleNodeCSV(t *testing.T, w server.Figure1ShardConfig) []byte {
	t.Helper()
	res, err := sim.RunFigure1Ctx(context.Background(), w.SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteSeriesCSV(&buf, "prob", res.Probs, res.CurveNames(), res.Curves); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// clusterCSV runs the full distributed pipeline — shard, merge, write the
// merged checkpoint, replay — and renders the same artifact.
func clusterCSV(t *testing.T, co *Coordinator, w server.Figure1ShardConfig) ([]byte, Stats) {
	t.Helper()
	job := testJob(t, w)
	results, stats, err := co.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("cluster run: %v (stats %+v)", err, stats)
	}
	path := filepath.Join(t.TempDir(), "merged.ckpt")
	if err := sim.WriteMergedCheckpoint(path, job.Experiment, job.ConfigSHA, job.Reps, results); err != nil {
		t.Fatal(err)
	}
	cfg := w.SimConfig()
	cfg.Checkpoint = path
	res, err := sim.RunFigure1Ctx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteSeriesCSV(&buf, "prob", res.Probs, res.CurveNames(), res.Curves); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

// TestClusterByteIdentical is the tentpole assertion: three workers, shard
// size 1 (every worker computes several shards), and the merged artifact is
// byte-identical to the single-node run.
func TestClusterByteIdentical(t *testing.T) {
	w := testFigure1()
	co, err := New(Config{
		Workers:   startWorkers(t, 3),
		ShardSize: 1,
		Client:    fastClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats := clusterCSV(t, co, w)
	if stats.Shards != 6 || stats.Completed != 6 {
		t.Fatalf("stats %+v, want 6/6 shards", stats)
	}
	if want := singleNodeCSV(t, w); !bytes.Equal(got, want) {
		t.Fatalf("cluster CSV differs from single-node run:\n--- cluster\n%s\n--- single\n%s", got, want)
	}
}

// TestClusterSurvivesDeadWorker: one of three workers is unreachable from
// the start; its shards are reassigned and the artifact is still
// byte-identical.
func TestClusterSurvivesDeadWorker(t *testing.T) {
	w := testFigure1()
	// A worker that accepts nothing: closed before the run begins.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close()
	// The live workers hold their shards until the coordinator has declared
	// the dead one dead: a worker still in quarantine when the run ends is
	// not counted dead, so the run must outlast the probe budget.
	declared := &logWatch{substr: "worker declared dead", hit: make(chan struct{})}
	var urls []string
	for i := 0; i < 2; i++ {
		backend := server.New(server.Config{Workers: 2, QueueSize: 16})
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shard" {
				select {
				case <-declared.hit:
				case <-time.After(10 * time.Second): // fail the assertion, not the suite
				}
			}
			backend.ServeHTTP(rw, r)
		}))
		t.Cleanup(func() { ts.Close(); backend.Close() })
		urls = append(urls, ts.URL)
	}
	// DeadAfter 1 makes quarantine entry deterministic: with 2 the run can
	// drain the queue before the dead worker pulls a second task, leaving it
	// merely suspect when the run completes. A tight probe budget turns the
	// quarantine into permanent death quickly (the probes also fail — the
	// socket is gone).
	co, err := New(Config{
		Workers:       append([]string{deadURL}, urls...),
		ShardSize:     1,
		MaxAttempts:   6,
		DeadAfter:     1,
		ProbeInterval: time.Millisecond,
		MaxProbes:     2,
		Client:        fastClient(),
		Log:           slog.New(slog.NewTextHandler(declared, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats := clusterCSV(t, co, w)
	if stats.Reassigned == 0 {
		t.Errorf("stats %+v: expected reassignments from the dead worker", stats)
	}
	if stats.Quarantined == 0 {
		t.Errorf("stats %+v: death must pass through quarantine", stats)
	}
	if stats.DeadWorkers != 1 {
		t.Errorf("stats %+v: expected exactly one dead worker", stats)
	}
	if want := singleNodeCSV(t, w); !bytes.Equal(got, want) {
		t.Fatal("cluster CSV with dead worker differs from single-node run")
	}
}

// TestClusterReassignsOnLeaseExpiry: a worker hangs on its first shard past
// the lease; the shard is reassigned and the run still completes correctly.
func TestClusterReassignsOnLeaseExpiry(t *testing.T) {
	w := testFigure1()
	urls := startWorkers(t, 2)
	// A proxy in front of a healthy worker that stalls exactly one /v1/shard
	// request beyond the lease.
	backend := server.New(server.Config{Workers: 2, QueueSize: 16})
	var hung atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shard" && hung.CompareAndSwap(false, true) {
			time.Sleep(400 * time.Millisecond)
		}
		backend.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() { proxy.Close(); backend.Close() })

	cc := fastClient()
	cc.MaxAttempts = 1 // one try per lease, so the stall maps to one reassignment
	co, err := New(Config{
		Workers:      append([]string{proxy.URL}, urls...),
		ShardSize:    1,
		LeaseTimeout: 100 * time.Millisecond,
		MaxAttempts:  6,
		DeadAfter:    3,
		Client:       cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats := clusterCSV(t, co, w)
	if !hung.Load() {
		t.Fatal("the stalling proxy never saw a shard request")
	}
	if stats.Reassigned == 0 {
		t.Errorf("stats %+v: expected the stalled shard to be reassigned", stats)
	}
	if want := singleNodeCSV(t, w); !bytes.Equal(got, want) {
		t.Fatal("cluster CSV with lease expiry differs from single-node run")
	}
}

// TestClusterInjectedDispatchFaults: the dist.shard chaos site burns
// attempts deterministically; the run reassigns through them and converges
// byte-identically.
func TestClusterInjectedDispatchFaults(t *testing.T) {
	inj, err := faults.Parse("seed=9,dist.shard=error:0.3")
	if err != nil {
		t.Fatal(err)
	}
	faults.SetDefault(inj)
	defer faults.SetDefault(nil)

	w := testFigure1()
	co, err := New(Config{
		Workers:     startWorkers(t, 3),
		ShardSize:   1,
		MaxAttempts: 12,
		Client:      fastClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats := clusterCSV(t, co, w)
	if inj.Fired() == 0 {
		t.Fatal("no dist.shard faults fired; the chaos site is not wired")
	}
	if uint64(stats.Reassigned) != inj.Fired() {
		t.Errorf("reassigned %d, faults fired %d — injected faults must map 1:1 to reassignments",
			stats.Reassigned, inj.Fired())
	}
	if want := singleNodeCSV(t, w); !bytes.Equal(got, want) {
		t.Fatal("cluster CSV under injected faults differs from single-node run")
	}
}

// TestClusterAggregatesProgress: the coordinator's tracker must account for
// every remotely-computed replication.
func TestClusterAggregatesProgress(t *testing.T) {
	w := testFigure1()
	tracker := progress.New("cluster-test", nil)
	co, err := New(Config{
		Workers:   startWorkers(t, 2),
		ShardSize: 2,
		Client:    fastClient(),
		Tracker:   tracker,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := testJob(t, w)
	if _, _, err := co.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	snap := tracker.Snapshot()
	if snap.Total != int64(w.Networks) || snap.Done != int64(w.Networks) {
		t.Fatalf("tracker %d/%d, want %d/%d", snap.Done, snap.Total, w.Networks, w.Networks)
	}
}

func TestClusterAllWorkersDeadFails(t *testing.T) {
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close()
	cc := fastClient()
	cc.MaxAttempts = 1
	co, err := New(Config{
		Workers:       []string{deadURL},
		ShardSize:     1,
		MaxAttempts:   100, // shard budget must not be the thing that fails
		DeadAfter:     2,
		ProbeInterval: time.Millisecond,
		MaxProbes:     2,
		Client:        cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = co.Run(context.Background(), testJob(t, testFigure1()))
	if err == nil {
		t.Fatal("run with only a dead worker succeeded")
	}
}

func TestDiscover(t *testing.T) {
	urls := startWorkers(t, 2)
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close()

	co, err := New(Config{Workers: append([]string{deadURL}, urls...)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := co.Discover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 2 {
		t.Fatalf("discovered %d workers, want 2", len(live))
	}
	seen := map[string]bool{}
	for _, w := range live {
		if w.Instance == "" || w.Version == "" || w.GoMaxProcs < 1 {
			t.Fatalf("incomplete worker info: %+v", w)
		}
		if seen[w.Instance] {
			t.Fatalf("duplicate instance id %q", w.Instance)
		}
		seen[w.Instance] = true
	}

	co2, err := New(Config{Workers: []string{deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co2.Discover(context.Background()); err == nil {
		t.Fatal("discover with no live workers succeeded")
	}
}

func TestNewRejectsEmptyWorkerSet(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no workers succeeded")
	}
}
