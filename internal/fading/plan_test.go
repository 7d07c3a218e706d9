package fading

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"rayfade/internal/rng"
)

// TestPlanCountersConcurrent runs Counters of one shared Plan on concurrent
// goroutines, each over its own stream and activity sets, and requires of
// each the counts and final stream position a private NewCounter gives on
// the same inputs. Under -race it also shows that Count only reads the Plan.
func TestPlanCountersConcurrent(t *testing.T) {
	const goroutines, trials = 4, 40
	m := randomMatrix(t, 21, 100)
	plan := NewPlan(m)
	type run struct {
		counts []int
		next   uint64
	}
	count := func(c *Counter, g int) run {
		setup, src := rng.New(uint64(300+g)), rng.New(uint64(400+g))
		var r run
		for k := 0; k < trials; k++ {
			active := randomActive(setup, m.N, setup.Float64())
			r.counts = append(r.counts, c.Count(active, 2.5, src))
		}
		r.next = src.Uint64()
		return r
	}
	want := make([]run, goroutines)
	for g := range want {
		want[g] = count(NewCounter(m), g)
	}
	got := make([]run, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = count(plan.Counter(), g)
		}()
	}
	wg.Wait()
	for g := range got {
		if !slices.Equal(got[g].counts, want[g].counts) {
			t.Errorf("goroutine %d: shared-plan counts %v, NewCounter %v", g, got[g].counts, want[g].counts)
		}
		if got[g].next != want[g].next {
			t.Errorf("goroutine %d: shared-plan counter left the stream elsewhere than NewCounter", g)
		}
	}
}

// TestPlanCounterAllocatesOnlyScratch pins Plan.Counter to the Counter's
// O(n) scratch: four allocations and a few bytes per link, where the
// Plan's order alone holds 4n(n−1) bytes and is shared, not copied.
func TestPlanCounterAllocatesOnlyScratch(t *testing.T) {
	m := randomMatrix(t, 22, 100)
	plan := NewPlan(m)
	var c *Counter
	if allocs := testing.AllocsPerRun(50, func() { c = plan.Counter() }); allocs != 4 {
		t.Errorf("Plan.Counter makes %.1f allocations, want 4 (the Counter, pos, mask and u, idx)", allocs)
	}
	const runs = 100
	counters := make([]*Counter, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := range counters {
		counters[k] = plan.Counter()
	}
	runtime.ReadMemStats(&after)
	if perCall, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(40*m.N); perCall > limit {
		t.Errorf("Plan.Counter allocates %d bytes on %d links, more than the %d of its scratch", perCall, m.N, limit)
	}
	if c = counters[0]; &c.order[0] != &plan.order[0] || &c.positive[0] != &plan.positive[0] {
		t.Error("a Counter copies its Plan's order or flags instead of sharing them")
	}
}
