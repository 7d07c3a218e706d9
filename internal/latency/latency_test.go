package latency

import (
	"context"
	"errors"
	"math"
	"testing"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/geom"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/transform"
)

func fig1Net(t testing.TB, seed uint64, n int) *network.Network {
	t.Helper()
	cfg := network.Figure1Config()
	cfg.N = n
	net, err := network.Random(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func defaultCapFn(net *network.Network) CapacityFunc {
	return GreedyCapacity(capacity.LengthOrder(net), capacity.DefaultTau)
}

func TestRepeatedCapacityCoversAllLinks(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		net := fig1Net(t, seed, 60)
		m := net.Gains()
		slots, err := RepeatedCapacityCtx(context.Background(), m, 2.5, defaultCapFn(net))
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]bool, m.N)
		for _, slot := range slots {
			if !sinr.Feasible(m, slot, 2.5) {
				t.Fatalf("slot %v infeasible", slot)
			}
			for _, i := range slot {
				if covered[i] {
					t.Fatalf("link %d scheduled twice", i)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("link %d never scheduled", i)
			}
		}
		if len(slots) < 2 {
			t.Fatalf("schedule suspiciously short: %d slots for 60 links", len(slots))
		}
	}
}

func TestRepeatedCapacityUnschedulable(t *testing.T) {
	net := fig1Net(t, 5, 10)
	net.Noise = 1e9
	_, err := RepeatedCapacityCtx(context.Background(), net.Gains(), 2.5, defaultCapFn(net))
	if !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("err = %v, want ErrUnschedulable", err)
	}
}

func TestRepeatedCapacityDetectsBrokenCapacityFunc(t *testing.T) {
	net := fig1Net(t, 6, 10)
	broken := func(ctx context.Context, m *network.Matrix, beta float64, candidates []int) ([]int, error) {
		return nil, nil
	}
	if _, err := RepeatedCapacityCtx(context.Background(), net.Gains(), 2.5, broken); err == nil {
		t.Fatal("empty-slot capacity function not rejected")
	}
	dense := fig1Net(t, 6, 100)
	m := dense.Gains()
	if sinr.Feasible(m, allLinks(m.N), 2.5) {
		t.Fatal("test premise broken: 100 simultaneous links should be infeasible")
	}
	infeasible := func(ctx context.Context, m *network.Matrix, beta float64, candidates []int) ([]int, error) {
		return candidates, nil // everything at once: infeasible on this workload
	}
	if _, err := RepeatedCapacityCtx(context.Background(), m, 2.5, infeasible); err == nil {
		t.Fatal("infeasible-slot capacity function not rejected")
	}
}

// TestCapacityFuncCancellationSurfaces: a capacity function cut short by
// cancellation must surface as ctx.Err(), not as an empty or infeasible
// slot, and must stop the multi-hop loop at once.
func TestCapacityFuncCancellationSurfaces(t *testing.T) {
	net := fig1Net(t, 6, 30)
	m := net.Gains()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	cancelling := func(ctx context.Context, m *network.Matrix, beta float64, candidates []int) ([]int, error) {
		calls++
		cancel()
		return defaultCapFn(net)(ctx, m, beta, candidates)
	}
	if _, err := RepeatedCapacityCtx(ctx, m, 2.5, cancelling); !errors.Is(err, context.Canceled) {
		t.Fatalf("RepeatedCapacityCtx err = %v, want context.Canceled", err)
	}
	calls = 0
	slots, done, err := MultiHopCtx(context.Background(), m, 2.5, []Path{{0, 5}}, func(_ context.Context, m *network.Matrix, beta float64, candidates []int) ([]int, error) {
		return cancelling(ctx, m, beta, candidates)
	}, 0, &NonFading{})
	if !errors.Is(err, context.Canceled) || done || slots != 0 || calls != 1 {
		t.Fatalf("MultiHopCtx = (%d, %v, %v) after %d capacity calls, want (0, false, context.Canceled) after 1", slots, done, err, calls)
	}
}

// TestContentionHonorsCancellation: both contention protocols stop before
// their first step on a cancelled ctx and report ctx.Err().
func TestContentionHonorsCancellation(t *testing.T) {
	m := fig1Net(t, 7, 20).Gains()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	aloha, aerr := AlohaCtx(ctx, m, 2.5, AlohaConfig{Prob: 0.1}, rng.New(1), &NonFading{})
	backoff, berr := BackoffAloha(ctx, m, 2.5, DefaultBackoff, rng.New(1), &NonFading{})
	for _, r := range []struct {
		res AlohaResult
		err error
	}{{aloha, aerr}, {backoff, berr}} {
		if !errors.Is(r.err, context.Canceled) || r.res.Slots != 0 || r.res.Done {
			t.Fatalf("cancelled run = %+v, %v; want no slots and context.Canceled", r.res, r.err)
		}
	}
}

func allLinks(n int) []int {
	set := make([]int, n)
	for i := range set {
		set[i] = i
	}
	return set
}

func TestPlayScheduleNonFadingCompletes(t *testing.T) {
	net := fig1Net(t, 7, 50)
	m := net.Gains()
	slots, err := RepeatedCapacityCtx(context.Background(), m, 2.5, defaultCapFn(net))
	if err != nil {
		t.Fatal(err)
	}
	used, done, _ := RepeatUntilDoneCtx(context.Background(), m, slots, 2.5, 1, 1, &NonFading{})
	if !done {
		t.Fatal("non-fading replay of a non-fading schedule must complete")
	}
	if used != len(slots) {
		t.Fatalf("used %d slots of %d; every slot should contribute", used, len(slots))
	}
}

func TestPlayScheduleIncomplete(t *testing.T) {
	net := fig1Net(t, 8, 20)
	m := net.Gains()
	// A schedule covering only link 0 cannot serve everyone.
	used, done, _ := RepeatUntilDoneCtx(context.Background(), m, [][]int{{0}}, 2.5, 1, 1, &NonFading{})
	if done {
		t.Fatal("partial schedule reported done")
	}
	if used != 1 {
		t.Fatalf("used = %d", used)
	}
}

func TestRepeatUntilDoneRayleigh(t *testing.T) {
	net := fig1Net(t, 9, 40)
	m := net.Gains()
	base, err := RepeatedCapacityCtx(context.Background(), m, 2.5, defaultCapFn(net))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(123)
	slots, done, _ := RepeatUntilDoneCtx(context.Background(), m, base, 2.5, transform.AlohaRepeats, 200, NewRayleigh(fading.NewCounter(m), src))
	if !done {
		t.Fatalf("Rayleigh replay did not finish in %d slots", slots)
	}
	if slots < len(base) {
		t.Fatalf("finished in %d slots, less than one expanded round of %d", slots, len(base))
	}
}

// The Section-4 bound in action: the expected Rayleigh completion time with
// 4 repeats should be within a small constant of the non-fading schedule
// length. We allow a generous factor of 12 to keep the test robust.
func TestRepeatUntilDoneOverheadBounded(t *testing.T) {
	net := fig1Net(t, 10, 50)
	m := net.Gains()
	base, err := RepeatedCapacityCtx(context.Background(), m, 2.5, defaultCapFn(net))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(77)
	totalSlots := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		slots, done, _ := RepeatUntilDoneCtx(context.Background(), m, base, 2.5, transform.AlohaRepeats, 500, NewRayleigh(fading.NewCounter(m), src))
		if !done {
			t.Fatal("run did not complete")
		}
		totalSlots += slots
	}
	avg := float64(totalSlots) / trials
	if avg > 12*float64(len(base)*transform.AlohaRepeats) {
		t.Fatalf("average Rayleigh latency %.1f ≫ %d-slot non-fading schedule", avg, len(base))
	}
}

func TestRepeatUntilDonePanics(t *testing.T) {
	net := fig1Net(t, 1, 5)
	m := net.Gains()
	for _, fn := range []func(){
		func() { RepeatUntilDoneCtx(context.Background(), m, [][]int{{0}}, 2.5, 0, 10, &NonFading{}) },
		func() { RepeatUntilDoneCtx(context.Background(), m, [][]int{{0}}, 2.5, 4, 0, &NonFading{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestAlohaNonFadingCompletes(t *testing.T) {
	net := fig1Net(t, 11, 40)
	m := net.Gains()
	src := rng.New(5)
	res, _ := AlohaCtx(context.Background(), m, 2.5, AlohaConfig{Prob: 0.1}, src, &NonFading{})
	if !res.Done {
		t.Fatalf("ALOHA did not complete in %d slots", res.Slots)
	}
	if len(res.PerSlotSuccesses) != res.Slots {
		t.Fatalf("per-slot record %d entries for %d slots", len(res.PerSlotSuccesses), res.Slots)
	}
	total := 0
	for _, c := range res.PerSlotSuccesses {
		total += c
	}
	if total != m.N {
		t.Fatalf("first-time successes %d, want %d", total, m.N)
	}
}

func TestAlohaRayleighWithRepeats(t *testing.T) {
	net := fig1Net(t, 12, 40)
	m := net.Gains()
	src := rng.New(6)
	res, _ := AlohaCtx(context.Background(), m, 2.5, AlohaConfig{Prob: 0.1, Repeats: transform.AlohaRepeats}, src, NewRayleigh(fading.NewCounter(m), src))
	if !res.Done {
		t.Fatalf("Rayleigh ALOHA did not complete in %d slots", res.Slots)
	}
}

func TestAlohaRespectsMaxSlots(t *testing.T) {
	net := fig1Net(t, 13, 30)
	net.Noise = 1e9 // nobody can ever succeed
	m := net.Gains()
	res, _ := AlohaCtx(context.Background(), m, 2.5, AlohaConfig{Prob: 0.2, MaxSlots: 100}, rng.New(7), &NonFading{})
	if res.Done {
		t.Fatal("impossible instance reported done")
	}
	if res.Slots != 100 {
		t.Fatalf("Slots = %d, want 100", res.Slots)
	}
}

func TestAlohaPanicsOnBadProb(t *testing.T) {
	net := fig1Net(t, 1, 5)
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Prob=%g did not panic", p)
				}
			}()
			AlohaCtx(context.Background(), net.Gains(), 2.5, AlohaConfig{Prob: p}, rng.New(1), &NonFading{})
		}()
	}
}

// ALOHA latency grows when the transmission probability is pushed toward 1
// on dense instances (everyone collides). Compare p=0.1 vs p=1.
func TestAlohaCollapseAtHighProbability(t *testing.T) {
	net := fig1Net(t, 14, 60)
	m := net.Gains()
	low, _ := AlohaCtx(context.Background(), m, 2.5, AlohaConfig{Prob: 0.1, MaxSlots: 20000}, rng.New(8), &NonFading{})
	high, _ := AlohaCtx(context.Background(), m, 2.5, AlohaConfig{Prob: 1, MaxSlots: 20000}, rng.New(9), &NonFading{})
	if !low.Done {
		t.Fatal("p=0.1 did not complete")
	}
	// With p=1 every unserved link always transmits: the set of
	// transmitters is identical every slot, so successes freeze after the
	// first slot and the run cannot finish on a dense instance.
	if high.Done && high.Slots < low.Slots {
		t.Fatalf("p=1 (%d slots) beat p=0.1 (%d slots) on a dense instance", high.Slots, low.Slots)
	}
}

func TestMultiHopDelivers(t *testing.T) {
	net := fig1Net(t, 15, 30)
	m := net.Gains()
	paths := []Path{
		{0, 5, 9},
		{3, 7},
		{12},
		{},
	}
	slots, done, _ := MultiHopCtx(context.Background(), m, 2.5, paths, defaultCapFn(net), 0, &NonFading{})
	if !done {
		t.Fatalf("multi-hop did not deliver in %d slots", slots)
	}
	// Store-and-forward: at least max path length slots needed.
	if slots < 3 {
		t.Fatalf("delivered in %d slots; path of 3 hops needs ≥ 3", slots)
	}
}

func TestMultiHopRayleigh(t *testing.T) {
	net := fig1Net(t, 16, 30)
	m := net.Gains()
	src := rng.New(10)
	paths := []Path{{0, 5}, {3, 7, 11}}
	slots, done, _ := MultiHopCtx(context.Background(), m, 2.5, paths, defaultCapFn(net), 10000, NewRayleigh(fading.NewCounter(m), src))
	if !done {
		t.Fatalf("Rayleigh multi-hop did not deliver in %d slots", slots)
	}
}

func TestMultiHopSharedHop(t *testing.T) {
	net := fig1Net(t, 17, 20)
	m := net.Gains()
	// Two packets sharing the same next hop: one success advances both.
	paths := []Path{{4, 8}, {4, 9}}
	_, done, _ := MultiHopCtx(context.Background(), m, 2.5, paths, defaultCapFn(net), 0, &NonFading{})
	if !done {
		t.Fatal("shared-hop instance did not deliver")
	}
}

func TestMultiHopPanicsOnBadPath(t *testing.T) {
	net := fig1Net(t, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MultiHopCtx(context.Background(), net.Gains(), 2.5, []Path{{99}}, defaultCapFn(net), 0, &NonFading{})
}

func TestModelNames(t *testing.T) {
	if (&NonFading{}).Name() == "" || (&Rayleigh{}).Name() == "" {
		t.Fatal("model names empty")
	}
}

// TestNonFadingSlotAllocationFree pins that a warmed non-fading model
// decides a slot without allocating, at every density.
func TestNonFadingSlotAllocationFree(t *testing.T) {
	m := fig1Net(t, 3, 60).Gains()
	src := rng.New(4)
	model := &NonFading{}
	active := make([]bool, m.N)
	for i := range active {
		active[i] = true
	}
	model.Successes(m, active, 2.5) // warm: sizes the scratch for every link
	for _, density := range []float64{0, 0.1, 0.5, 1} {
		for i := range active {
			active[i] = src.Bernoulli(density)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			model.Successes(m, active, 2.5)
		}); allocs != 0 {
			t.Errorf("a warmed NonFading slot at density %.1f allocates %.1f objects per run", density, allocs)
		}
	}
}

// TestRayleighPanicsOnForeignMatrix pins that a Rayleigh model answers only
// for its counter's matrix: an equal copy is still another matrix.
func TestRayleighPanicsOnForeignMatrix(t *testing.T) {
	net := fig1Net(t, 3, 10)
	m := net.Gains()
	model := NewRayleigh(fading.NewCounter(m), rng.New(1))
	active := make([]bool, m.N)
	active[0] = true
	model.Successes(m, active, 2.5)
	defer func() {
		if recover() == nil {
			t.Fatal("Successes on another matrix did not panic")
		}
	}()
	model.Successes(net.Gains(), active, 2.5)
}

func BenchmarkRepeatedCapacity60(b *testing.B) {
	net := fig1Net(b, 1, 60)
	m := net.Gains()
	fn := defaultCapFn(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RepeatedCapacityCtx(context.Background(), m, 2.5, fn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlohaNonFading60(b *testing.B) {
	net := fig1Net(b, 1, 60)
	m := net.Gains()
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AlohaCtx(context.Background(), m, 2.5, AlohaConfig{Prob: 0.1}, src, &NonFading{})
	}
}

// boundaryPair is the two-link topology {(0,0)→(1,0)}, {(500,0)→(500.5,0)}
// at α 2 and the given noise. At noise 0.5 and β 2, link 0's own gain 1
// equals β·ν exactly: its SINR alone is exactly β.
func boundaryPair(noise float64) *network.Network {
	return &network.Network{
		Links: []network.Link{
			{Sender: geom.Point{X: 0, Y: 0}, Receiver: geom.Point{X: 1, Y: 0}, Power: 1, Weight: 1},
			{Sender: geom.Point{X: 500, Y: 0}, Receiver: geom.Point{X: 500.5, Y: 0}, Power: 1, Weight: 1},
		},
		Metric: geom.Euclidean{}, Alpha: 2, Noise: noise,
	}
}

func TestRepeatedCapacityAtAloneBoundary(t *testing.T) {
	net := boundaryPair(0.5)
	m := net.Gains()
	slots, err := RepeatedCapacityCtx(context.Background(), m, 2, defaultCapFn(net))
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 2 {
		t.Fatalf("slots %v, want the two links in two slots", slots)
	}
}

// TestUnschedulableIsTheAloneRule pins that RepeatedCapacityCtx declares
// ErrUnschedulable exactly when some link fails sinr.Alone, one ulp either
// side of the boundary, so the greedy can never be handed a link it will
// not pick.
func TestUnschedulableIsTheAloneRule(t *testing.T) {
	for _, noise := range []float64{math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1)} {
		net := boundaryPair(noise)
		m := net.Gains()
		alone := sinr.Alone(m, 0, 2) && sinr.Alone(m, 1, 2)
		_, err := RepeatedCapacityCtx(context.Background(), m, 2, defaultCapFn(net))
		if alone && err != nil {
			t.Fatalf("ν = %v: every link reaches β alone, yet %v", noise, err)
		}
		if !alone && !errors.Is(err, ErrUnschedulable) {
			t.Fatalf("ν = %v: a link fails alone, err = %v, want ErrUnschedulable", noise, err)
		}
	}
	if !sinr.Alone(boundaryPair(0.5).Gains(), 0, 2) || sinr.Alone(boundaryPair(math.Nextafter(0.5, 1)).Gains(), 0, 2) {
		t.Fatal("the noise sweep does not straddle the alone boundary")
	}
}
