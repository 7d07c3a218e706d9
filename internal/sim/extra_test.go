package sim

import (
	"context"
	"testing"

	"rayfade/internal/fading"
	"rayfade/internal/geom"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/stats"
)

func TestRunFadingSweepShapes(t *testing.T) {
	cfg := FadingSweepConfig{
		Networks:      3,
		Links:         40,
		TransmitSeeds: 4,
		FadingSeeds:   3,
		Shapes:        []float64{0.5, 1, 4, 16},
		Seed:          11,
	}
	res := run(t, RunFadingSweepCtx, cfg)
	if len(res.Shapes) != 4 || len(res.PerShape.Acc) != 4 {
		t.Fatalf("shapes %v", res.Shapes)
	}
	wantSamples := 3 * 4 * 3 // networks × transmit × fading
	for si := range res.Shapes {
		if n := res.PerShape.Acc[si].N(); n != wantSamples {
			t.Fatalf("shape %g has %d samples, want %d", res.Shapes[si], n, wantSamples)
		}
	}
	if res.RayleighShapeIndex() != 1 {
		t.Fatalf("Rayleigh index %d", res.RayleighShapeIndex())
	}
	// The m=1 Monte-Carlo mean must agree with the closed-form expectation
	// within a few standard errors.
	m1 := res.PerShape.Acc[1]
	exact := res.Rayleigh.Mean()
	if diff := m1.Mean() - exact; diff > 4*m1.StdErr()+1.5 || diff < -4*m1.StdErr()-1.5 {
		t.Fatalf("Nakagami m=1 mean %.2f vs Rayleigh closed form %.2f", m1.Mean(), exact)
	}
}

// At a moderate transmission probability with noticeable interference, the
// ordering between fading severities is monotone in the large: milder
// fading (larger m) tracks the non-fading count more closely.
func TestRunFadingSweepApproachesNonFading(t *testing.T) {
	cfg := FadingSweepConfig{
		Networks:      4,
		Links:         60,
		TransmitSeeds: 6,
		FadingSeeds:   4,
		Prob:          0.25,
		Shapes:        []float64{1, 32},
		Seed:          13,
	}
	res := run(t, RunFadingSweepCtx, cfg)
	nf := res.NonFading.Mean()
	gapRayleigh := abs(res.PerShape.Acc[0].Mean() - nf)
	gapMild := abs(res.PerShape.Acc[1].Mean() - nf)
	if gapMild >= gapRayleigh {
		t.Fatalf("m=32 gap %.2f not smaller than Rayleigh gap %.2f (nf=%.2f)",
			gapMild, gapRayleigh, nf)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestRunTopologyShapes(t *testing.T) {
	cfg := TopologyConfig{
		GridSide:      5,
		TransmitSeeds: 4,
		FadingSeeds:   2,
		Probs:         []float64{0.2, 0.6, 1.0},
		RandomNets:    3,
		Seed:          15,
	}
	res := run(t, RunTopologyCtx, cfg)
	if len(res.Curves) != 4 {
		t.Fatalf("%d curves", len(res.Curves))
	}
	for name, s := range res.Curves {
		for i := range res.Probs {
			if s.Acc[i].N() == 0 {
				t.Fatalf("%s point %d empty", name, i)
			}
			if m := s.Acc[i].Mean(); m < 0 || m > 25 {
				t.Fatalf("%s point %d mean %g outside [0,25]", name, i, m)
			}
		}
	}
	// Sample counts: grid = transmit×fading per point; random ×nets.
	if n := res.Curves[CurveGridNonFading].Acc[0].N(); n != 4 {
		t.Fatalf("grid non-fading samples %d", n)
	}
	if n := res.Curves[CurveRandomRayleigh].Acc[0].N(); n != 3*4*2 {
		t.Fatalf("random rayleigh samples %d", n)
	}
}

// The paper's high-interference observation must hold on both topologies:
// at full activity (dense interference), Rayleigh fading lets more links
// through than the non-fading model predicts, for the grid and the random
// layout alike.
func TestRayleighBeatsNonFadingAtFullActivityBothTopologies(t *testing.T) {
	cfg := TopologyConfig{
		GridSide:      8,
		TransmitSeeds: 10,
		FadingSeeds:   4,
		Probs:         []float64{1.0},
		RandomNets:    6,
		Seed:          17,
	}
	res := run(t, RunTopologyCtx, cfg)
	for _, pair := range [][2]string{
		{CurveGridRayleigh, CurveGridNonFading},
		{CurveRandomRayleigh, CurveRandomNonFading},
	} {
		rl := res.Curves[pair[0]].Acc[0].Mean()
		nf := res.Curves[pair[1]].Acc[0].Mean()
		if rl <= nf {
			t.Fatalf("%s (%.2f) should beat %s (%.2f) at q=1", pair[0], rl, pair[1], nf)
		}
	}
}

func TestRunTopologyDeterministic(t *testing.T) {
	cfg := TopologyConfig{
		GridSide:      4,
		TransmitSeeds: 3,
		FadingSeeds:   2,
		Probs:         []float64{0.5},
		RandomNets:    3,
		Seed:          19,
	}
	a := run(t, RunTopologyCtx, cfg)
	cfg.Workers = 1
	b := run(t, RunTopologyCtx, cfg)
	for name := range a.Curves {
		if a.Curves[name].Acc[0].Mean() != b.Curves[name].Acc[0].Mean() {
			t.Fatalf("%s differs across worker counts", name)
		}
	}
}

func TestRunShannonShapes(t *testing.T) {
	cfg := ShannonConfig{
		Networks:      3,
		Links:         40,
		TransmitSeeds: 4,
		FadingSeeds:   2,
		Probs:         []float64{0.2, 0.6, 1.0},
		Seed:          21,
	}
	res := run(t, RunShannonCtx, cfg)
	for name, s := range res.Curves {
		for i := range res.Probs {
			if s.Acc[i].N() == 0 {
				t.Fatalf("%s point %d empty", name, i)
			}
			if m := s.Acc[i].Mean(); m <= 0 {
				t.Fatalf("%s point %d capacity %g not positive", name, i, m)
			}
		}
	}
	// Total Shannon capacity keeps growing with activity much longer than
	// the threshold objective (every extra transmitter adds log terms):
	// at q=1 it must exceed q=0.2 in both models on this workload.
	for _, name := range []string{CurveShannonNonFading, CurveShannonRayleigh} {
		s := res.Curves[name]
		if s.Acc[2].Mean() <= s.Acc[0].Mean() {
			t.Fatalf("%s: capacity at q=1 (%.1f) not above q=0.2 (%.1f)",
				name, s.Acc[2].Mean(), s.Acc[0].Mean())
		}
	}
}

// With Exact set, the closed-form curve must agree with the Monte-Carlo
// Rayleigh curve within its sampling error.
func TestRunShannonExactMatchesMC(t *testing.T) {
	cfg := ShannonConfig{
		Networks:      2,
		Links:         25,
		TransmitSeeds: 12,
		FadingSeeds:   6,
		Probs:         []float64{0.3, 0.8},
		Seed:          25,
		Exact:         true,
	}
	res := run(t, RunShannonCtx, cfg)
	mc := res.Curves[CurveShannonRayleigh]
	exact := res.Curves[CurveShannonExact]
	for i := range cfg.Probs {
		diff := mc.Acc[i].Mean() - exact.Acc[i].Mean()
		tol := 5*mc.Acc[i].StdErr() + 5*exact.Acc[i].StdErr() + 0.02*exact.Acc[i].Mean()
		if diff > tol || diff < -tol {
			t.Fatalf("q=%g: MC %.2f vs exact %.2f (tol %.2f)",
				cfg.Probs[i], mc.Acc[i].Mean(), exact.Acc[i].Mean(), tol)
		}
	}
}

func TestRunLatencySmall(t *testing.T) {
	cfg := LatencyConfig{
		Networks: 3,
		Links:    40,
		Trials:   2,
		Seed:     23,
	}
	res := run(t, RunLatencyCtx, cfg)
	if res.Incomplete != 0 {
		t.Fatalf("%d incomplete runs", res.Incomplete)
	}
	if res.ScheduleLen.N() != 3 || res.ScheduleLen.Mean() < 1 {
		t.Fatalf("schedule length %v", res.ScheduleLen.Summarize())
	}
	// Rayleigh replay of the schedule costs at least the expanded length.
	if res.ScheduleRayleigh.Mean() < res.ScheduleLen.Mean() {
		t.Fatalf("rayleigh replay %.1f below schedule %.1f",
			res.ScheduleRayleigh.Mean(), res.ScheduleLen.Mean())
	}
	// All protocols completed with positive slot counts.
	for name, acc := range map[string]*stats.Running{
		"alohaNF": &res.AlohaNF, "alohaRL": &res.AlohaRL,
		"backoffNF": &res.BackoffNF, "backoffRL": &res.BackoffRL,
	} {
		if acc.N() == 0 || acc.Mean() <= 0 {
			t.Fatalf("%s: %v", name, acc.Summarize())
		}
	}
	// The centralized schedule beats the distributed protocols.
	if res.ScheduleLen.Mean() > res.AlohaNF.Mean() {
		t.Fatalf("schedule %.1f slots worse than ALOHA %.1f",
			res.ScheduleLen.Mean(), res.AlohaNF.Mean())
	}
}

// The Figure-1 crossover survives clustered deployments: at q = 1 on a
// locally dense topology, Rayleigh still beats the non-fading prediction.
func TestFigure1ClusterTopology(t *testing.T) {
	cfg := Figure1Config{
		Networks:      4,
		Links:         100,
		TransmitSeeds: 6,
		FadingSeeds:   3,
		Probs:         []float64{0.3, 1.0},
		Seed:          43,
		Topology:      "cluster",
	}
	res := run(t, RunFigure1Ctx, cfg)
	nf := res.Curves[CurveUniformNonFading].Means()
	rl := res.Curves[CurveUniformRayleigh].Means()
	if rl[1] <= nf[1] {
		t.Fatalf("clustered q=1: Rayleigh %.2f should beat non-fading %.2f", rl[1], nf[1])
	}
	for _, name := range res.CurveNames() {
		for i, m := range res.Curves[name].Means() {
			if m < 0 || m > 100 {
				t.Fatalf("%s point %d mean %g out of range", name, i, m)
			}
		}
	}
}

func TestFigure1UnknownTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunFigure1Ctx(context.Background(), Figure1Config{Networks: 1, Links: 10, TransmitSeeds: 1, FadingSeeds: 1,
		Probs: []float64{0.5}, Topology: "hexagon"})
}

// End-to-end validation of the Figure-1 pipeline against Theorem 1: the
// sampled Rayleigh curve must agree with the exact expectation
// Σ_i Q_i(q·1, β) averaged over the same networks.
func TestFigure1RayleighCurveMatchesClosedForm(t *testing.T) {
	cfg := Figure1Config{
		Networks:      5,
		Links:         50,
		TransmitSeeds: 20,
		FadingSeeds:   5,
		Probs:         []float64{0.25, 0.6, 1.0},
		Seed:          41,
		Workers:       1,
	}
	res := run(t, RunFigure1Ctx, cfg)
	// Recompute the exact expectations over the same deterministic
	// network sequence (ParallelCtx splits the master stream once per
	// replication, and network generation is each stream's first use).
	const beta = 2.5 // the default the run used
	base := rng.New(cfg.Seed)
	exact := make([]float64, len(cfg.Probs))
	for rep := 0; rep < cfg.Networks; rep++ {
		src := base.Split()
		netCfg := network.Config{
			N:     cfg.Links,
			Area:  geom.Square(1000),
			DMin:  20,
			DMax:  40,
			Alpha: 2.2,
			Noise: 4e-7,
		}
		net, err := network.Random(netCfg, src)
		if err != nil {
			t.Fatal(err)
		}
		m := net.Clone().ApplyPower(network.UniformPower{P: 2}).Gains()
		for pi, p := range cfg.Probs {
			exact[pi] += fading.ExpectedSuccessesExact(m, fading.UniformProbs(m.N, p), beta)
		}
	}
	mc := res.Curves[CurveUniformRayleigh]
	for pi := range cfg.Probs {
		want := exact[pi] / float64(cfg.Networks)
		got := mc.Acc[pi].Mean()
		tol := 6*mc.Acc[pi].StdErr() + 0.05*want
		if got < want-tol || got > want+tol {
			t.Fatalf("q=%g: sampled %0.2f vs exact %0.2f (tol %0.2f)",
				cfg.Probs[pi], got, want, tol)
		}
	}
}

func TestFigure2FinalSendProb(t *testing.T) {
	res := run(t, RunFigure2Ctx, Figure2Config{Networks: 2, Links: 30, Rounds: 60, Seed: 33})
	for _, acc := range []stats.Running{res.FinalSendProbNF, res.FinalSendProbRL} {
		if acc.N() != 2 {
			t.Fatalf("samples %d", acc.N())
		}
		if m := acc.Mean(); m <= 0 || m >= 1 {
			t.Fatalf("final send probability %g not interior", m)
		}
	}
}

func TestRunFigure2WithExp3(t *testing.T) {
	cfg := Figure2Config{
		Networks: 2,
		Links:    30,
		Rounds:   60,
		Learner:  "exp3",
		Seed:     31,
	}
	res := run(t, RunFigure2Ctx, cfg)
	if res.ConvergedNF.Mean() <= 0 {
		t.Fatalf("Exp3 converged throughput %g", res.ConvergedNF.Mean())
	}
	// Bandit feedback converges more slowly than full information on the
	// same instances and horizon.
	rwm := cfg
	rwm.Learner = "rwm"
	rwmRes := run(t, RunFigure2Ctx, rwm)
	if res.ConvergedNF.Mean() > rwmRes.ConvergedNF.Mean()*1.5 {
		t.Fatalf("Exp3 (%.1f) implausibly above RWM (%.1f)",
			res.ConvergedNF.Mean(), rwmRes.ConvergedNF.Mean())
	}
}

func TestRunFigure2UnknownLearnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	run(t, RunFigure2Ctx, Figure2Config{Networks: 1, Links: 5, Rounds: 2, Learner: "sarsa"})
}

func TestRunBaselineSmall(t *testing.T) {
	cfg := BaselineConfig{Networks: 4, Links: 60, Seed: 27}
	res := run(t, RunBaselineCtx, cfg)
	if res.GraphSetSize.N() != 4 {
		t.Fatalf("samples %d", res.GraphSetSize.N())
	}
	// The binary abstraction over-selects: valid links never exceed the
	// claimed set size, and the SINR greedy never has violations.
	if res.GraphSINRValid.Mean() > res.GraphSetSize.Mean() {
		t.Fatal("more valid links than selected links")
	}
	if res.SINRSetSize.Mean() <= 0 || res.SINRSlots.Mean() <= 0 {
		t.Fatal("SINR schedulers degenerate")
	}
	// Lemma 2 floor applies to the SINR greedy's transfer.
	if res.SINRRayleigh.Mean() < res.SINRSetSize.Mean()/3 {
		t.Fatalf("rayleigh expectation %.2f below size/e floor", res.SINRRayleigh.Mean())
	}
	// Rayleigh replay of the SINR schedule completed on every network.
	if res.SINRRayleighSlots.N() != 4 {
		t.Fatalf("rayleigh replays completed: %d of 4", res.SINRRayleighSlots.N())
	}
}

func BenchmarkFadingSweepTiny(b *testing.B) {
	cfg := FadingSweepConfig{
		Networks:      2,
		Links:         30,
		TransmitSeeds: 2,
		FadingSeeds:   2,
		Shapes:        []float64{1, 4},
		Seed:          1,
	}
	for i := 0; i < b.N; i++ {
		run(b, RunFadingSweepCtx, cfg)
	}
}
