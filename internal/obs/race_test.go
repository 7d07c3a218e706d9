package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestRingWraparoundConcurrent drives a tiny ring far past wraparound from
// many goroutines completing spans at once, with concurrent readers. Under
// -race (CI runs this package with the detector) this is the proof that slot
// reuse in the ring is synchronized; without it, that the ring's bookkeeping
// stays exact under contention.
func TestRingWraparoundConcurrent(t *testing.T) {
	const ringCap, workers, iters = 8, 8, 500
	tr := NewTracer(ringCap)
	ctx := WithTracer(context.Background(), tr)

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	// Readers snapshot continuously while writers wrap the ring.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range tr.Snapshot() {
					if s.ID == 0 {
						t.Error("snapshot surfaced an unrecorded span")
						return
					}
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				_, sp := Start(ctx, "wrap")
				sp.SetAttr("i", i)
				sp.End()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := tr.Recorded(); got != workers*iters {
		t.Fatalf("Recorded = %d, want %d", got, workers*iters)
	}
	spans := tr.Snapshot()
	if len(spans) != ringCap {
		t.Fatalf("ring holds %d spans after wraparound, want %d", len(spans), ringCap)
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("ring holds span id %d twice", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestRegistryReadsRaceRegistration interleaves Counter registration of new
// names with Snapshot readers. The -race run proves the registry's
// map is never read bare while a registration mutates it.
func TestRegistryReadsRaceRegistration(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter(fmt.Sprintf("c.%d.%d", w, i)).Add(1)
				if i%17 == 0 {
					if snap := reg.Snapshot(); len(snap) == 0 {
						t.Error("snapshot empty after registrations")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(reg.Snapshot()); got != workers*perWorker {
		t.Fatalf("registered %d counters, want %d", got, workers*perWorker)
	}
	for name, v := range reg.Snapshot() {
		if v != 1 {
			t.Fatalf("counter %s = %d, want 1", name, v)
		}
	}
}
