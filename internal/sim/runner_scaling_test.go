package sim

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rayfade/internal/rng"
)

// spin is a CPU-bound replication body: pure arithmetic, no allocation, no
// blocking, so wall-clock across worker counts measures the fan-out itself.
func spin(iters int, src *rng.Source) float64 {
	x := src.Float64()
	for k := 0; k < iters; k++ {
		x = math.Sqrt(x*x + 1)
	}
	return x
}

// timeParallel runs reps CPU-bound replications at the given width and
// returns the wall-clock time.
func timeParallel(reps, workers, iters int) time.Duration {
	start := time.Now()
	ParallelCtx(context.Background(), reps, workers, rng.New(99), func(_ context.Context, rep int, src *rng.Source) float64 {
		return spin(iters, src)
	})
	return time.Since(start)
}

// TestParallelCtxSpeedup pins the tentpole fix: on a machine with at least 4
// hardware threads, 4 workers must beat 1 worker by at least 2x on a
// CPU-bound body. The previous unbuffered-channel dispatcher throttled
// exactly this shape of load. Run under -race in CI, the test doubles as a
// data-race check on the claim counter and result slots.
func TestParallelCtxSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need at least 4 CPUs for a scaling assertion, have %d", runtime.NumCPU())
	}
	const (
		reps  = 64
		iters = 400_000
	)
	// Warm up the scheduler and any lazily-started runtime threads.
	timeParallel(8, 4, iters/10)
	serial := timeParallel(reps, 1, iters)
	wide := timeParallel(reps, 4, iters)
	speedup := float64(serial) / float64(wide)
	t.Logf("workers=1: %v  workers=4: %v  speedup %.2fx", serial, wide, speedup)
	if speedup < 2 {
		t.Fatalf("4 workers only %.2fx over 1 worker; want at least 2x", speedup)
	}
}

// TestParallelCtxWorkerInvariance pins the determinism contract of the
// atomic-claim fan-out at the runner level: per-replication RNG streams are
// pre-split, so the result vector is bit-identical at every width, including
// widths above both the replication count and the machine's core count.
func TestParallelCtxWorkerInvariance(t *testing.T) {
	body := func(_ context.Context, rep int, src *rng.Source) float64 {
		sum := 0.0
		for k := 0; k < 100; k++ {
			sum += src.Float64() * float64(rep+1)
		}
		return sum
	}
	const reps = 37
	want := parallel(t, reps, 1, rng.New(7), body)
	for _, workers := range []int{2, 3, 8, 64, 0} {
		got, err := ParallelCtx(context.Background(), reps, workers, rng.New(7), body)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for r := range want {
			if want[r] != got[r] {
				t.Fatalf("workers=%d rep %d: %g, want %g", workers, r, got[r], want[r])
			}
		}
	}
}

// TestParallelCtxCancellationStopsClaims verifies the atomic-claim loop still
// honors the "no further replications are started" contract: with a cancelled
// context, no body runs at all.
func TestParallelCtxCancellationStopsClaims(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	results, err := ParallelCtx(ctx, 16, 4, rng.New(1), func(_ context.Context, rep int, src *rng.Source) int {
		ran.Add(1)
		return rep
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d replications ran after cancellation", n)
	}
	if len(results) != 16 {
		t.Fatalf("result slice length %d, want 16", len(results))
	}
}
