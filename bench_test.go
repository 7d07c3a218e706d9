package rayfade

// One benchmark per reproduced experiment (DESIGN.md per-experiment index),
// plus the ablation benches DESIGN.md calls out. Benchmarks run scaled-down
// workloads per iteration so `go test -bench=.` completes quickly; the full
// paper-scale runs live behind `cmd/raysched` and EXPERIMENTS.md. Where a
// benchmark's value (not just its speed) matters, the per-iteration result
// is published with b.ReportMetric so bench output doubles as a sanity
// record of the reproduced shapes.

import (
	"context"
	"testing"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/graphsched"
	"rayfade/internal/latency"
	"rayfade/internal/network"
	"rayfade/internal/opt"
	"rayfade/internal/regret"
	"rayfade/internal/rng"
	"rayfade/internal/sim"
	"rayfade/internal/sinr"
	"rayfade/internal/transform"
	"rayfade/internal/utility"
)

// BenchmarkFigure1 regenerates a scaled-down Figure 1 per iteration: four
// success-vs-probability curves over {uniform, sqrt} × {non-fading,
// Rayleigh}. Reported metric: Rayleigh/uniform successes at q = 1 (the
// region where fading beats the deterministic model).
func BenchmarkFigure1(b *testing.B) {
	cfg := sim.Figure1Config{
		Networks:      4,
		Links:         100,
		TransmitSeeds: 5,
		FadingSeeds:   3,
		Probs:         []float64{0.1, 0.25, 0.5, 0.75, 1.0},
		Seed:          1,
		Workers:       1,
	}
	var lastAtFull float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFigure1Ctx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		means := res.Curves[sim.CurveUniformRayleigh].Means()
		lastAtFull = means[len(means)-1]
	}
	b.ReportMetric(lastAtFull, "rayleigh_succ_at_q1")
}

// BenchmarkFigure2 regenerates a scaled-down Figure 2 per iteration: RWM
// learning curves in both models. Reported metric: converged non-fading
// throughput.
func BenchmarkFigure2(b *testing.B) {
	cfg := sim.Figure2Config{
		Networks: 2,
		Links:    100,
		Rounds:   60,
		Seed:     2,
		Workers:  1,
	}
	var converged float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFigure2Ctx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		converged = res.ConvergedNF.Mean()
	}
	b.ReportMetric(converged, "converged_successes")
}

// BenchmarkOptimum regenerates the Section-7 in-text optimum reference
// (paper: 49.75 average on the Figure-1 workload) with a scaled-down search.
func BenchmarkOptimum(b *testing.B) {
	cfg := sim.OptimumConfig{
		Networks: 2,
		Links:    100,
		Search:   opt.LocalSearchConfig{Restarts: 3, SwapPasses: 10},
		Seed:     3,
		Workers:  1,
	}
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunOptimumCtx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.LocalSearch.Mean()
	}
	b.ReportMetric(mean, "optimum_estimate")
}

func benchMatrix(b *testing.B, seed uint64, n int) *network.Matrix {
	b.Helper()
	cfg := network.Figure1Config()
	cfg.N = n
	net, err := network.Random(cfg, rng.New(seed))
	if err != nil {
		b.Fatal(err)
	}
	return net.Gains()
}

// BenchmarkTheorem1 measures the closed-form success probability over all
// links of a 100-link instance (the Figure-1 primitive).
func BenchmarkTheorem1(b *testing.B) {
	m := benchMatrix(b, 1, 100)
	q := fading.UniformProbs(100, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fading.ExpectedSuccessesExact(m, q, 2.5)
	}
}

// BenchmarkLemma1Bounds evaluates both Lemma-1 bounds across all links.
func BenchmarkLemma1Bounds(b *testing.B) {
	m := benchMatrix(b, 1, 100)
	q := fading.UniformProbs(100, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for link := 0; link < m.N; link++ {
			fading.LowerBound(m, q, 2.5, link)
			fading.UpperBound(m, q, 2.5, link)
		}
	}
}

// BenchmarkLemma2Transfer transfers a greedy non-fading solution to the
// Rayleigh model and evaluates its exact expected value. Reported metric:
// realized retention E[Rayleigh]/non-fading (Lemma 2 guarantees ≥ 1/e).
func BenchmarkLemma2Transfer(b *testing.B) {
	cfg := network.Figure1Config()
	net, err := network.Random(cfg, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	m := net.Gains()
	set, err := capacity.GreedyAffectanceCtx(context.Background(), m, 2.5, capacity.DefaultTau, capacity.LengthOrder(net))
	if err != nil {
		b.Fatal(err)
	}
	var retention float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := transform.Transfer(m, set, utility.Uniform(utility.Binary{Beta: 2.5}))
		retention = fading.ExpectedBinaryValueOfSet(m, set, 2.5) / rep.NonFadingValue
	}
	b.ReportMetric(retention, "retention")
}

// BenchmarkAlgorithm1 evaluates the Theorem-2 simulation schedule as the
// reduction experiment does: every step played ScheduleRepeats times in the
// non-fading model, and the best step picked.
func BenchmarkAlgorithm1(b *testing.B) {
	m := benchMatrix(b, 5, 100)
	q := fading.UniformProbs(100, 0.7)
	steps := transform.Schedule(q, transform.ScheduleRepeats)
	us := utility.Uniform(utility.Binary{Beta: 2.5})
	src := rng.New(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := transform.BestStepCtx(context.Background(), m, steps, us, transform.ScheduleRepeats, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyRepeatedCapacity builds the full repeated-capacity
// schedule of a 100-link instance. Reported metric: schedule length.
func BenchmarkLatencyRepeatedCapacity(b *testing.B) {
	cfg := network.Figure1Config()
	net, err := network.Random(cfg, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	m := net.Gains()
	capFn := latency.GreedyCapacity(capacity.LengthOrder(net), capacity.DefaultTau)
	var slots int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := latency.RepeatedCapacityCtx(context.Background(), m, 2.5, capFn)
		if err != nil {
			b.Fatal(err)
		}
		slots = len(sched)
	}
	b.ReportMetric(float64(slots), "slots")
}

// BenchmarkLatencyAlohaRayleigh runs the distributed protocol to completion
// under Rayleigh fading with the Section-4 repetition factor. Reported
// metric: slots to drain 100 links.
func BenchmarkLatencyAlohaRayleigh(b *testing.B) {
	m := benchMatrix(b, 8, 100)
	src := rng.New(9)
	model := latency.NewRayleigh(fading.NewCounter(m), src)
	var slots float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := latency.AlohaCtx(context.Background(), m, 2.5,
			latency.AlohaConfig{Prob: 0.1, Repeats: transform.AlohaRepeats},
			src, model)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Done {
			b.Fatal("ALOHA run incomplete")
		}
		slots = float64(res.Slots)
	}
	b.ReportMetric(slots, "slots")
}

// BenchmarkRegretConvergence plays 60 RWM rounds on a 100-link Figure-2
// instance in the Rayleigh model. Reported metric: max average regret.
func BenchmarkRegretConvergence(b *testing.B) {
	cfg := network.Figure2Config()
	cfg.N = 100
	net, err := network.Random(cfg, rng.New(10))
	if err != nil {
		b.Fatal(err)
	}
	m := net.Gains()
	var reg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := regret.NewGame(m, 0.5, regret.Rayleigh, rng.New(uint64(i)+11)).Run(60)
		reg = h.MaxAverageRegret()
	}
	b.ReportMetric(reg, "avg_regret")
}

// BenchmarkShannonExact evaluates the exact expected Shannon capacity of a
// 60-link instance at q = 0.5 by quadrature over the Theorem-1 closed form.
// Reported metric: total capacity in nats.
func BenchmarkShannonExact(b *testing.B) {
	m := benchMatrix(b, 20, 60)
	q := fading.UniformProbs(60, 0.5)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := fading.TotalShannonExact(m, q, 1e-7)
		if err != nil {
			b.Fatal(err)
		}
		total = v
	}
	b.ReportMetric(total, "nats")
}

// BenchmarkGraphBaseline builds the conflict graph and both graph-model
// schedules for a 100-link instance. Reported metric: fraction of the
// coloring's scheduled links that violate the true SINR constraint.
func BenchmarkGraphBaseline(b *testing.B) {
	m := benchMatrix(b, 21, 100)
	var violFrac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graphsched.FromMatrix(m, 2.5, graphsched.DefaultThreshold)
		ev := graphsched.EvaluateSchedule(m, g.Coloring(), 2.5)
		violFrac = float64(ev.Violations) / float64(ev.Scheduled)
	}
	b.ReportMetric(violFrac, "violation_frac")
}

// BenchmarkSignalPartition runs the signal-strengthening partition (the
// Lemma-7-adjacent machinery) on a 100-link instance. Reported metric:
// number of 2-signal parts.
func BenchmarkSignalPartition(b *testing.B) {
	m := benchMatrix(b, 22, 100)
	set := make([]int, m.N)
	for i := range set {
		set[i] = i
	}
	var parts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := sinr.PartitionToSignal(m, set, 2.5, 2)
		if err != nil {
			b.Fatal(err)
		}
		parts = len(ps)
	}
	b.ReportMetric(float64(parts), "parts")
}

// BenchmarkSampleSINRsDense draws one Rayleigh SINR realization for a fully
// active 200-link instance through the allocation-free kernel. allocs/op must
// report 0 — the steady-state contract the experiment inner loops rely on.
func BenchmarkSampleSINRsDense(b *testing.B) {
	active := make([]bool, 200)
	for i := range active {
		active[i] = true
	}
	benchSampleSINRs(b, benchMatrix(b, 23, 200), active)
}

// BenchmarkSampleSINRsSparse is the same kernel at 10% activity, the regime
// near the Figure-1 peak where the active-index list skips most of the O(n²)
// matrix. allocs/op must report 0.
func BenchmarkSampleSINRsSparse(b *testing.B) {
	active := make([]bool, 200)
	for i := 0; i < len(active); i += 10 {
		active[i] = true
	}
	benchSampleSINRs(b, benchMatrix(b, 24, 200), active)
}

func benchSampleSINRs(b *testing.B, m *network.Matrix, active []bool) {
	b.Helper()
	vals := make([]float64, m.N)
	idx := make([]int, 0, m.N)
	src := rng.New(25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fading.SampleSINRsInto(m, active, fading.RayleighGains{}, src, vals, idx)
	}
}

// --- Ablations (DESIGN.md "design choices called out for ablation") -----

// BenchmarkAblationGreedyTau compares the affectance budget τ of the greedy
// capacity algorithm. Reported metric: selected set size.
func BenchmarkAblationGreedyTau(b *testing.B) {
	cfg := network.Figure1Config()
	net, err := network.Random(cfg, rng.New(12))
	if err != nil {
		b.Fatal(err)
	}
	m := net.Gains()
	order := capacity.LengthOrder(net)
	for _, tau := range []float64{0.25, 0.5, 1.0} {
		b.Run(tauName(tau), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				size = len(capacity.GreedyAffectance(m, 2.5, tau, order))
			}
			b.ReportMetric(float64(size), "set_size")
		})
	}
}

func tauName(tau float64) string {
	switch tau {
	case 0.25:
		return "tau=0.25"
	case 0.5:
		return "tau=0.50"
	default:
		return "tau=1.00"
	}
}

// BenchmarkAblationAlohaRepeats varies the Section-4 repetition factor of
// the fading ALOHA (paper proves 4 suffices). Reported metric: slots.
func BenchmarkAblationAlohaRepeats(b *testing.B) {
	m := benchMatrix(b, 15, 80)
	for _, repeats := range []int{1, 2, 4, 8} {
		name := map[int]string{1: "repeats=1", 2: "repeats=2", 4: "repeats=4", 8: "repeats=8"}[repeats]
		b.Run(name, func(b *testing.B) {
			src := rng.New(16)
			model := latency.NewRayleigh(fading.NewCounter(m), src)
			var slots float64
			for i := 0; i < b.N; i++ {
				res, err := latency.AlohaCtx(context.Background(), m, 2.5,
					latency.AlohaConfig{Prob: 0.1, Repeats: repeats, MaxSlots: 100000},
					src, model)
				if err != nil {
					b.Fatal(err)
				}
				if res.Done {
					slots = float64(res.Slots)
				}
			}
			b.ReportMetric(slots, "slots")
		})
	}
}

// BenchmarkAblationMCSamples contrasts Monte-Carlo expected-success
// estimation against the closed form it approximates.
func BenchmarkAblationMCSamples(b *testing.B) {
	m := benchMatrix(b, 17, 60)
	q := fading.UniformProbs(60, 0.5)
	us := utility.Uniform(utility.Binary{Beta: 2.5})
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fading.ExpectedSuccessesExact(m, q, 2.5)
		}
	})
	for _, samples := range []int{100, 1000} {
		name := map[int]string{100: "mc=100", 1000: "mc=1000"}[samples]
		b.Run(name, func(b *testing.B) {
			src := rng.New(18)
			for i := 0; i < b.N; i++ {
				fading.ExpectedUtilityMC(m, q, us, samples, src)
			}
		})
	}
}

// BenchmarkAblationParallel measures the replication runner sequentially
// vs with all cores on a Figure-1 slice.
func BenchmarkAblationParallel(b *testing.B) {
	cfg := sim.Figure1Config{
		Networks:      8,
		Links:         60,
		TransmitSeeds: 4,
		FadingSeeds:   2,
		Probs:         []float64{0.2, 0.5, 1.0},
		Seed:          19,
	}
	b.Run("workers=1", func(b *testing.B) {
		c := cfg
		c.Workers = 1
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunFigure1Ctx(context.Background(), c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workers=all", func(b *testing.B) {
		c := cfg
		c.Workers = 0
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunFigure1Ctx(context.Background(), c); err != nil {
				b.Fatal(err)
			}
		}
	})
}
