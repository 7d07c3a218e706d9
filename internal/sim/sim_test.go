package sim

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"rayfade/internal/progress"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
)

// run calls an experiment's Ctx entry point with a background context and
// fails the test if it returns an error.
func run[C, R any](t testing.TB, experiment func(context.Context, C) (R, error), cfg C) R {
	t.Helper()
	res, err := experiment(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// parallel is ParallelCtx with a background context; it fails the test if
// the fan-out returns an error.
func parallel[T any](t testing.TB, reps, workers int, base *rng.Source, fn func(rep int, src *rng.Source) T) []T {
	t.Helper()
	res, err := ParallelCtx(context.Background(), reps, workers, base, fn)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParallelOrderAndDeterminism(t *testing.T) {
	fn := func(rep int, src *rng.Source) float64 {
		return float64(rep) + src.Float64()
	}
	a := parallel(t, 50, 8, rng.New(9), fn)
	b := parallel(t, 50, 1, rng.New(9), fn) // sequential must match parallel
	c := parallel(t, 50, 3, rng.New(9), fn)
	for r := range a {
		if a[r] != b[r] || a[r] != c[r] {
			t.Fatalf("rep %d: results differ across worker counts: %g %g %g", r, a[r], b[r], c[r])
		}
		if int(a[r]) != r {
			t.Fatalf("rep %d: got result for wrong replication: %g", r, a[r])
		}
	}
}

func TestParallelEdgeCases(t *testing.T) {
	if got := parallel(t, 0, 4, rng.New(1), func(int, *rng.Source) int { return 1 }); len(got) != 0 {
		t.Fatalf("reps=0 returned %v", got)
	}
	got := parallel(t, 3, 100, rng.New(1), func(rep int, _ *rng.Source) int { return rep * 2 })
	if got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("got %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative reps did not panic")
			}
		}()
		parallel(t, -1, 1, rng.New(1), func(int, *rng.Source) int { return 0 })
	}()
}

func TestParallelNotifiesTracker(t *testing.T) {
	tr := progress.New("test", nil)
	SetProgress(tr)
	defer SetProgress(nil)
	parallel(t, 12, 4, rng.New(3), func(rep int, _ *rng.Source) int { return rep })
	if s := tr.Snapshot(); s.Total != 12 || s.Done != 12 {
		t.Fatalf("tracker saw %d/%d replications, want 12/12", s.Done, s.Total)
	}
}

func TestFigure1CountsRealizations(t *testing.T) {
	tr := progress.New("test", nil)
	SetProgress(tr)
	defer SetProgress(nil)
	cfg := smallFig1()
	cfg.Workers = 2
	RunFigure1(cfg)
	// One batch of FadingSeeds realizations per (network, assignment, prob,
	// transmit seed), with two probability assignments (uniform and sqrt).
	want := int64(cfg.Networks * 2 * len(cfg.Probs) * cfg.TransmitSeeds * cfg.FadingSeeds)
	if s := tr.Snapshot(); s.Realizations != want {
		t.Fatalf("tracker saw %d realizations, want %d", s.Realizations, want)
	}
}

// smallFig1 is a scaled-down Figure-1 config that runs in well under a
// second but exercises every code path.
func smallFig1() Figure1Config {
	return Figure1Config{
		Networks:      4,
		Links:         40,
		TransmitSeeds: 5,
		FadingSeeds:   3,
		Probs:         []float64{0.1, 0.3, 0.5, 0.8, 1.0},
		Seed:          7,
	}
}

func TestRunFigure1Shapes(t *testing.T) {
	res := RunFigure1(smallFig1())
	if len(res.CurveNames()) != 4 {
		t.Fatalf("curves: %v", res.CurveNames())
	}
	for _, name := range res.CurveNames() {
		s := res.Curves[name]
		if len(s.Acc) != 5 {
			t.Fatalf("%s has %d points", name, len(s.Acc))
		}
		for i := range s.Acc {
			if s.Acc[i].N() == 0 {
				t.Fatalf("%s point %d has no observations", name, i)
			}
			m := s.Acc[i].Mean()
			if m < 0 || m > 40 {
				t.Fatalf("%s point %d mean %g outside [0,40]", name, i, m)
			}
		}
	}
	// Sample counts: non-fading = networks×seeds, Rayleigh ×fading seeds.
	if n := res.Curves[CurveUniformNonFading].Acc[0].N(); n != 4*5 {
		t.Fatalf("non-fading samples per point = %d, want 20", n)
	}
	if n := res.Curves[CurveUniformRayleigh].Acc[0].N(); n != 4*5*3 {
		t.Fatalf("Rayleigh samples per point = %d, want 60", n)
	}
}

func TestRunFigure1Deterministic(t *testing.T) {
	// Replication RNG streams are pre-split before fan-out and per-replication
	// series merge in replication order, so the result must be bit-identical
	// for any worker count — including the default (all cores).
	base := smallFig1()
	results := make([]*Figure1Result, 0, 4)
	for _, workers := range []int{1, 4, 8, 0} {
		cfg := base
		cfg.Workers = workers
		results = append(results, RunFigure1(cfg))
	}
	a := results[0]
	for _, b := range results[1:] {
		for _, name := range a.CurveNames() {
			am, bm := a.Curves[name].Means(), b.Curves[name].Means()
			as, bs := a.Curves[name].StdErrs(), b.Curves[name].StdErrs()
			for i := range am {
				if am[i] != bm[i] {
					t.Fatalf("%s point %d differs across worker counts: %g vs %g", name, i, am[i], bm[i])
				}
				// The structure-of-arrays gain matrix must not perturb the
				// accumulation order either: second moments are as sensitive
				// to reordering as means, so pin them too.
				if as[i] != bs[i] {
					t.Fatalf("%s point %d stderr differs across worker counts: %g vs %g", name, i, as[i], bs[i])
				}
			}
		}
	}
}

// The qualitative Figure-1 shape: at q=1 on a dense instance, Rayleigh
// fading lets some links through where the non-fading model predicts almost
// total collapse ("Rayleigh allows more requests to become successful if
// interference is large"); the smoothing property also keeps the Rayleigh
// peak at or below the non-fading peak height.
func TestRunFigure1QualitativeShape(t *testing.T) {
	cfg := Figure1Config{
		Networks:      6,
		Links:         100,
		TransmitSeeds: 8,
		FadingSeeds:   4,
		Probs:         []float64{0.05, 0.15, 0.3, 0.5, 0.75, 1.0},
		Seed:          11,
	}
	res := RunFigure1(cfg)
	nf := res.Curves[CurveUniformNonFading].Means()
	rl := res.Curves[CurveUniformRayleigh].Means()
	last := len(cfg.Probs) - 1
	if rl[last] <= nf[last] {
		t.Fatalf("at q=1 Rayleigh (%.2f) should beat non-fading (%.2f) on dense instances", rl[last], nf[last])
	}
	// Both curves rise then fall (unimodal up to noise): the peak is not at
	// the endpoints.
	for _, curve := range []string{CurveUniformNonFading, CurveUniformRayleigh} {
		p, _, err := res.Peak(curve)
		if err != nil {
			t.Fatalf("Peak(%s): %v", curve, err)
		}
		if p == cfg.Probs[0] {
			t.Fatalf("%s peaks at the left endpoint", curve)
		}
	}
}

func TestFigure1PeakErrorsOnUnknownCurve(t *testing.T) {
	res := RunFigure1(smallFig1())
	if _, _, err := res.Peak("nope"); err == nil {
		t.Fatal("expected error for unknown curve")
	}
}

func TestFigure1PeakErrorsOnEmptySeries(t *testing.T) {
	// A curve over an empty x-grid has no argmax: Peak must surface a clear
	// error rather than the former panic on Probs[-1].
	res := &Figure1Result{
		Probs:  nil,
		Curves: map[string]*stats.Series{CurveUniformRayleigh: stats.NewSeries(nil)},
	}
	if _, _, err := res.Peak(CurveUniformRayleigh); err == nil {
		t.Fatal("expected error for empty series")
	}
}

func smallFig2() Figure2Config {
	return Figure2Config{
		Networks: 3,
		Links:    40,
		Rounds:   40,
		Seed:     5,
	}
}

func TestRunFigure2Shapes(t *testing.T) {
	res := run(t, RunFigure2Ctx, smallFig2())
	if len(res.Rounds) != 40 {
		t.Fatalf("%d rounds", len(res.Rounds))
	}
	if res.NonFading.Acc[0].N() != 3 || res.Rayleigh.Acc[0].N() != 3 {
		t.Fatalf("per-round sample counts %d/%d", res.NonFading.Acc[0].N(), res.Rayleigh.Acc[0].N())
	}
	if res.GreedyRef.N() != 3 || res.GreedyRef.Mean() <= 0 {
		t.Fatalf("greedy reference %v", res.GreedyRef.Summarize())
	}
	if len(res.Lemma5NF) != 3 || len(res.Lemma5RL) != 3 {
		t.Fatalf("Lemma5 records %d/%d", len(res.Lemma5NF), len(res.Lemma5RL))
	}
	for _, s := range res.Lemma5NF {
		if s.X > s.F+1e-9 {
			t.Fatalf("Lemma5 violated: X=%g F=%g", s.X, s.F)
		}
	}
}

func TestRunFigure2Converges(t *testing.T) {
	cfg := smallFig2()
	cfg.Rounds = 80
	res := run(t, RunFigure2Ctx, cfg)
	// Converged throughput beats round-1 throughput in both models.
	firstNF := res.NonFading.Acc[0].Mean()
	if res.ConvergedNF.Mean() < firstNF {
		t.Fatalf("non-fading did not improve: round1 %.2f, converged %.2f", firstNF, res.ConvergedNF.Mean())
	}
	// Regret should be small after 80 rounds.
	if res.RegretNF.Mean() > 0.4 || res.RegretRL.Mean() > 0.4 {
		t.Fatalf("regret too high: NF %.3f RL %.3f", res.RegretNF.Mean(), res.RegretRL.Mean())
	}
}

func TestRunFigure2Deterministic(t *testing.T) {
	a := run(t, RunFigure2Ctx, smallFig2())
	cfg := smallFig2()
	cfg.Workers = 1
	b := run(t, RunFigure2Ctx, cfg)
	am, bm := a.NonFading.Means(), b.NonFading.Means()
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("round %d differs across worker counts", i)
		}
	}
}

func TestRunOptimumSmall(t *testing.T) {
	cfg := OptimumConfig{
		Networks: 4,
		Links:    40,
		Seed:     13,
	}
	res := run(t, RunOptimumCtx, cfg)
	if res.Greedy.N() != 4 || res.LocalSearch.N() != 4 {
		t.Fatalf("sample counts %d/%d", res.Greedy.N(), res.LocalSearch.N())
	}
	if res.LocalSearch.Mean() < res.Greedy.Mean() {
		t.Fatalf("local search %.2f below greedy %.2f", res.LocalSearch.Mean(), res.Greedy.Mean())
	}
	if res.LocalSearch.Mean() <= 0 || res.LocalSearch.Mean() > 40 {
		t.Fatalf("optimum estimate %.2f out of range", res.LocalSearch.Mean())
	}
	// Lemma 2 ties the fading value of the optimum set to its size.
	if res.RayleighOfOptimum.Mean() < res.LocalSearch.Mean()/3 {
		t.Fatalf("rayleigh value %.2f below optimum/e floor (opt %.2f)",
			res.RayleighOfOptimum.Mean(), res.LocalSearch.Mean())
	}
	if res.RayleighOfOptimum.Mean() > res.LocalSearch.Mean() {
		t.Fatalf("rayleigh value %.2f exceeds the set size %.2f",
			res.RayleighOfOptimum.Mean(), res.LocalSearch.Mean())
	}
}

func TestRunReduction(t *testing.T) {
	cfg := ReductionConfig{
		Sizes:         []int{10, 30},
		NetworksPer:   3,
		SamplesPerStp: 50,
		Seed:          9,
	}
	res := run(t, RunReductionCtx, cfg)
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Ratio.N() != 3 {
			t.Fatalf("n=%d has %d samples", p.N, p.Ratio.N())
		}
		if p.Ratio.Mean() <= 0 {
			t.Fatalf("n=%d ratio %g", p.N, p.Ratio.Mean())
		}
		// The empirical factor must respect the theorem's O(log* n) form
		// with a generous constant: ratio ≤ 8·(levels+1).
		if p.Ratio.Mean() > 8*float64(p.Levels+1) {
			t.Fatalf("n=%d ratio %.2f breaks the Theorem-2 band (levels=%d)",
				p.N, p.Ratio.Mean(), p.Levels)
		}
		if p.Levels <= 0 || p.LogStar <= 0 {
			t.Fatalf("n=%d: levels=%d logstar=%d", p.N, p.Levels, p.LogStar)
		}
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	s := stats.NewSeries([]float64{1, 2})
	s.Observe(0, 3)
	s.Observe(1, 5)
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, "q", []float64{1, 2}, []string{"a"}, map[string]*stats.Series{"a": s})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines: %v", lines)
	}
	if lines[0] != "q,a_mean,a_stderr" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,3,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteSeriesCSVUnknownSeries(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, "q", []float64{1}, []string{"missing"}, map[string]*stats.Series{})
	if err == nil {
		t.Fatal("unknown series accepted")
	}
}

func TestMarkdownTable(t *testing.T) {
	s := stats.NewSeries([]float64{1})
	s.Observe(0, 2)
	s.Observe(0, 4)
	var buf bytes.Buffer
	if err := MarkdownTable(&buf, "x", []float64{1}, []string{"curve"}, map[string]*stats.Series{"curve": s}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "| x | curve |") || !strings.Contains(out, "3.00 ±") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestASCIIChart(t *testing.T) {
	s := stats.NewSeries([]float64{1, 2, 3})
	for i, v := range []float64{1, 5, 2} {
		s.Observe(i, v)
	}
	var buf bytes.Buffer
	if err := ASCIIChart(&buf, []float64{1, 2, 3}, []string{"c"}, map[string]*stats.Series{"c": s}, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") {
		t.Fatalf("chart has no glyphs:\n%s", out)
	}
	if !strings.Contains(out, "c") {
		t.Fatalf("chart has no legend:\n%s", out)
	}
}

func TestASCIIChartErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := ASCIIChart(&buf, nil, nil, nil, 8); err == nil {
		t.Fatal("empty grid accepted")
	}
	if err := ASCIIChart(&buf, []float64{1}, []string{"x"}, map[string]*stats.Series{}, 8); err == nil {
		t.Fatal("unknown series accepted")
	}
}

func BenchmarkFigure1Tiny(b *testing.B) {
	cfg := Figure1Config{
		Networks:      2,
		Links:         30,
		TransmitSeeds: 3,
		FadingSeeds:   2,
		Probs:         []float64{0.2, 0.6, 1.0},
		Seed:          1,
	}
	for i := 0; i < b.N; i++ {
		RunFigure1(cfg)
	}
}

func BenchmarkParallelOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		parallel(b, 64, 0, rng.New(1), func(rep int, src *rng.Source) int { return rep })
	}
}
