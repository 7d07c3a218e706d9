package regret

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/network"
	"rayfade/internal/rng"
)

func fig2Net(t testing.TB, seed uint64, n int) *network.Network {
	t.Helper()
	cfg := network.Figure2Config()
	cfg.N = n
	net, err := network.Random(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestRWMInitialState(t *testing.T) {
	r := NewRWM()
	if w := r.Weights(); w[0] != 1 || w[1] != 1 {
		t.Fatalf("initial weights %v", w)
	}
	if got := r.eta; math.Abs(got-math.Sqrt(0.5)) > 1e-15 {
		t.Fatalf("initial η = %g", got)
	}
	if p := r.SendProbability(); p != 0.5 {
		t.Fatalf("initial send probability %g", p)
	}
}

func TestRWMPunishesFailing(t *testing.T) {
	r := NewRWM()
	// Repeated send-failures must drive the send probability down.
	for i := 0; i < 20; i++ {
		r.Update([2]float64{Idle: LossIdle, Send: LossSendFail})
	}
	if p := r.SendProbability(); p > 0.05 {
		t.Fatalf("after 20 failures send probability still %g", p)
	}
}

func TestRWMRewardsSucceeding(t *testing.T) {
	r := NewRWM()
	// Succeeding (loss 0) against idling (loss 0.5) drives sending up.
	for i := 0; i < 20; i++ {
		r.Update([2]float64{Idle: LossIdle, Send: LossOther})
	}
	if p := r.SendProbability(); p < 0.95 {
		t.Fatalf("after 20 successes send probability only %g", p)
	}
}

func TestRWMEtaSchedule(t *testing.T) {
	r := NewRWM()
	losses := [2]float64{0, 0}
	eta0 := r.eta
	// η decays only when steps crosses the next power of two (2, 4, 8, ...).
	r.Update(losses) // steps=1
	r.Update(losses) // steps=2, not > 2
	if r.eta != eta0 {
		t.Fatalf("η decayed too early at 2 steps")
	}
	r.Update(losses) // steps=3 > 2 → decay
	if want := eta0 * math.Sqrt(0.5); math.Abs(r.eta-want) > 1e-15 {
		t.Fatalf("η after first decay = %g, want %g", r.eta, want)
	}
	r.Update(losses) // 4
	r.Update(losses) // 5 > 4 → decay
	if want := eta0 * 0.5; math.Abs(r.eta-want) > 1e-15 {
		t.Fatalf("η after second decay = %g, want %g", r.eta, want)
	}
}

func TestRWMChooseFollowsWeights(t *testing.T) {
	r := NewRWM()
	for i := 0; i < 30; i++ {
		r.Update([2]float64{Idle: LossIdle, Send: LossSendFail})
	}
	src := rng.New(1)
	sends := 0
	for i := 0; i < 10000; i++ {
		if r.Choose(src) == Send {
			sends++
		}
	}
	if frac := float64(sends) / 10000; math.Abs(frac-r.SendProbability()) > 0.02 {
		t.Fatalf("empirical send rate %g vs probability %g", frac, r.SendProbability())
	}
}

func TestRWMLongHorizonNumericallyStable(t *testing.T) {
	r := NewRWM()
	for i := 0; i < 200000; i++ {
		r.Update([2]float64{Idle: LossIdle, Send: LossSendFail})
	}
	w := r.Weights()
	if math.IsNaN(w[0]) || math.IsNaN(w[1]) || w[0]+w[1] == 0 {
		t.Fatalf("weights degenerated: %v", w)
	}
	p := r.SendProbability()
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Fatalf("send probability degenerated: %g", p)
	}
}

func TestRWMPanicsOnNegativeLoss(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRWM().Update([2]float64{-1, 0})
}

func TestModelString(t *testing.T) {
	if NonFading.String() != "non-fading" || Rayleigh.String() != "rayleigh" {
		t.Fatal("model names wrong")
	}
	if Model(9).String() == "" {
		t.Fatal("unknown model should still print")
	}
}

func TestGameRunShapes(t *testing.T) {
	net := fig2Net(t, 1, 30)
	g := NewGame(net.Gains(), 0.5, NonFading, rng.New(7))
	h := g.Run(25)
	if len(h.Rounds) != 25 || h.N != 30 {
		t.Fatalf("history shape: %d rounds, n=%d", len(h.Rounds), h.N)
	}
	for t2, r := range h.Rounds {
		if len(r.Sent) != 30 || len(r.RewardSend) != 30 || len(r.Succeeded) != 30 {
			t.Fatalf("round %d has wrong widths", t2)
		}
		count := 0
		for i := range r.Succeeded {
			if r.Succeeded[i] {
				count++
				if !r.Sent[i] {
					t.Fatalf("round %d: link %d succeeded without sending", t2, i)
				}
			}
		}
		if count != r.Successes {
			t.Fatalf("round %d: recorded %d successes, counted %d", t2, r.Successes, count)
		}
		for i, rw := range r.RewardSend {
			if rw != 1 && rw != -1 {
				t.Fatalf("round %d: RewardSend[%d] = %g", t2, i, rw)
			}
		}
	}
	if series := h.SuccessSeries(); len(series) != 25 {
		t.Fatalf("series length %d", len(series))
	}
}

func TestGamePanics(t *testing.T) {
	net := fig2Net(t, 1, 5)
	for _, fn := range []func(){
		func() { NewGame(net.Gains(), 0, NonFading, rng.New(1)) },
		func() { NewGame(net.Gains(), 0.5, NonFading, rng.New(1)).Run(0) },
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

// The core no-regret property: average external regret vanishes as T grows,
// in both models.
func TestRegretVanishes(t *testing.T) {
	for _, model := range []Model{NonFading, Rayleigh} {
		net := fig2Net(t, 3, 40)
		g := NewGame(net.Gains(), 0.5, model, rng.New(11))
		short := g.Run(20).MaxAverageRegret()
		gLong := NewGame(net.Gains(), 0.5, model, rng.New(11))
		long := gLong.Run(600).MaxAverageRegret()
		if long > 0.25 {
			t.Fatalf("%v: average regret after 600 rounds is %g", model, long)
		}
		if long > short+0.05 {
			t.Fatalf("%v: regret grew from %g (T=20) to %g (T=600)", model, short, long)
		}
	}
}

// Regret against an adversarial (non-game) loss sequence: feed RWM a
// sequence where Send is always good, and check the realized reward
// approaches the best fixed action.
func TestRWMNoRegretOnStationarySequence(t *testing.T) {
	r := NewRWM()
	src := rng.New(13)
	T := 2000
	var realized float64
	for t2 := 0; t2 < T; t2++ {
		a := r.Choose(src)
		if a == Send {
			realized++ // reward 1
		}
		r.Update([2]float64{Idle: LossIdle, Send: LossOther})
	}
	// Best fixed action (Send) earns T; realized must be close.
	if realized < 0.9*float64(T) {
		t.Fatalf("realized reward %g of %d — RWM failed to lock onto Send", realized, T)
	}
}

// Lemma 5: X ≤ F ≤ 2X + εn (empirical version, with slack for sampling).
func TestLemma5Relation(t *testing.T) {
	for _, model := range []Model{NonFading, Rayleigh} {
		net := fig2Net(t, 5, 50)
		g := NewGame(net.Gains(), 0.5, model, rng.New(17))
		h := g.Run(400)
		s := h.Lemma5()
		if s.X > s.F+1e-9 {
			t.Fatalf("%v: X = %g exceeds F = %g", model, s.X, s.F)
		}
		slack := 0.1 * float64(h.N) // sampling noise allowance
		if s.F > 2*s.X+math.Max(s.Epsilon, 0)*float64(h.N)+slack {
			t.Fatalf("%v: F = %g > 2X + εn = %g", model, s.F, 2*s.X+s.Epsilon*float64(h.N))
		}
	}
}

// Theorem 3's empirical content: converged throughput is a constant
// fraction of the non-fading greedy capacity (a stand-in lower bound on
// |OPT|), in both models.
func TestConvergedThroughputNearCapacity(t *testing.T) {
	net := fig2Net(t, 7, 60)
	m := net.Gains()
	greedy, _ := capacity.GreedyAffectanceCtx(context.Background(), m, 0.5, capacity.DefaultTau, capacity.LengthOrder(net))
	greedySize := float64(len(greedy))
	for _, model := range []Model{NonFading, Rayleigh} {
		g := NewGame(m, 0.5, model, rng.New(19))
		h := g.Run(300)
		avg := h.AverageSuccesses(100)
		if avg < greedySize/8 {
			t.Fatalf("%v: converged throughput %.2f far below greedy capacity %.0f", model, avg, greedySize)
		}
	}
}

// The paper's Figure-2 observation: the learner converges within a few
// dozen rounds — late-window throughput should dominate the first rounds.
func TestConvergenceWithinFortyRounds(t *testing.T) {
	net := fig2Net(t, 9, 60)
	g := NewGame(net.Gains(), 0.5, NonFading, rng.New(23))
	h := g.Run(200)
	early := 0.0
	for _, r := range h.Rounds[:5] {
		early += float64(r.Successes)
	}
	early /= 5
	late := h.AverageSuccesses(50)
	if late < early {
		t.Fatalf("throughput did not improve: first-5 average %.2f, last-50 average %.2f", early, late)
	}
}

func TestExternalRegretDefinition(t *testing.T) {
	// Hand-built two-round history for one player.
	h := &History{N: 1, Rounds: []Round{
		{Sent: []bool{true}, Succeeded: []bool{false}, Successes: 0, RewardSend: []float64{-1}},
		{Sent: []bool{false}, Succeeded: []bool{false}, Successes: 0, RewardSend: []float64{1}},
	}}
	// Realized: −1 + 0 = −1. Fixed Send: −1 + 1 = 0. Fixed Idle: 0.
	// Regret = max(0, 0) − (−1) = 1.
	if got := h.ExternalRegret(0); math.Abs(got-1) > 1e-15 {
		t.Fatalf("ExternalRegret = %g, want 1", got)
	}
	if got := h.MaxAverageRegret(); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("MaxAverageRegret = %g, want 0.5", got)
	}
}

func TestAverageSuccessesWindow(t *testing.T) {
	h := &History{N: 1, Rounds: []Round{
		{Successes: 0, Sent: []bool{false}, Succeeded: []bool{false}, RewardSend: []float64{1}},
		{Successes: 2, Sent: []bool{false}, Succeeded: []bool{false}, RewardSend: []float64{1}},
		{Successes: 4, Sent: []bool{false}, Succeeded: []bool{false}, RewardSend: []float64{1}},
	}}
	if got := h.AverageSuccesses(0); math.Abs(got-2) > 1e-15 {
		t.Fatalf("full average = %g", got)
	}
	if got := h.AverageSuccesses(2); math.Abs(got-3) > 1e-15 {
		t.Fatalf("window-2 average = %g", got)
	}
	if got := h.AverageSuccesses(99); math.Abs(got-2) > 1e-15 {
		t.Fatalf("oversized window average = %g", got)
	}
	empty := &History{}
	if got := empty.AverageSuccesses(5); got != 0 {
		t.Fatalf("empty history average = %g", got)
	}
}

// The paper's Figure-2 convergence claim, quantified: on its workload the
// dynamics settle within roughly 30–40 rounds.
func TestRoundsToConvergeMatchesPaperBand(t *testing.T) {
	net := fig2Net(t, 19, 100)
	for _, model := range []Model{NonFading, Rayleigh} {
		h := NewGame(net.Gains(), 0.5, model, rng.New(51)).Run(150)
		conv := h.RoundsToConverge(20, 0.1)
		if conv < 0 {
			t.Fatalf("%v: never converged", model)
		}
		if conv > 60 {
			t.Fatalf("%v: converged only after %d rounds", model, conv)
		}
	}
}

func TestRoundsToConvergeEdgeCases(t *testing.T) {
	empty := &History{}
	if got := empty.RoundsToConverge(5, 0.1); got != -1 {
		t.Fatalf("empty history converged at %d", got)
	}
	flat := &History{N: 1}
	for i := 0; i < 10; i++ {
		flat.Rounds = append(flat.Rounds, Round{Successes: 3,
			Sent: []bool{true}, Succeeded: []bool{true}, RewardSend: []float64{1}})
	}
	if got := flat.RoundsToConverge(3, 0.1); got != 1 {
		t.Fatalf("flat trajectory converges at %d, want 1", got)
	}
	zero := &History{N: 1}
	for i := 0; i < 10; i++ {
		zero.Rounds = append(zero.Rounds, Round{
			Sent: []bool{false}, Succeeded: []bool{false}, RewardSend: []float64{-1}})
	}
	if got := zero.RoundsToConverge(3, 0.1); got != -1 {
		t.Fatalf("all-zero trajectory converged at %d", got)
	}
}

// h̄_i matches its definition: simulate the reward of a transmitting link
// and compare against 2·Q_i − 1.
func TestExpectedRewardMatchesEmpirical(t *testing.T) {
	net := fig2Net(t, 23, 15)
	m := net.Gains()
	src := rng.New(61)
	q := make([]float64, m.N)
	for i := range q {
		q[i] = 1 // pure strategies: everyone transmits
	}
	i := 4
	want := ExpectedReward(m, q, 0.5, i)
	if want < -1 || want > 1 {
		t.Fatalf("expected reward %g outside [-1,1]", want)
	}
	var sum float64
	const trials = 100000
	active := make([]bool, m.N)
	for k := range active {
		active[k] = true
	}
	counter, ok := fading.NewCounter(m), make([]bool, m.N)
	for trial := 0; trial < trials; trial++ {
		counter.Count(active, 0.5, src, ok)
		if ok[i] {
			sum++
		} else {
			sum--
		}
	}
	got := sum / trials
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("empirical reward %g vs h̄ = %g", got, want)
	}
	// Silent links earn 0.
	qSilent := append([]float64(nil), q...)
	qSilent[i] = 0
	if r := ExpectedReward(m, qSilent, 0.5, i); r != 0 {
		t.Fatalf("silent reward %g", r)
	}
}

// referenceStep is Game.step as it was before the Rayleigh decisions moved
// onto fading.Counter: every realized SINR from the sampling kernel, then a
// threshold; every counterfactual from its own loop of rng.Exp draws, own
// signal first. It plays g's learners and draws from g's source.
func referenceStep(g *Game) Round {
	n := g.m.N
	sent := make([]bool, n)
	chosen := make([]int, n)
	avgProb := 0.0
	for i, p := range g.learners {
		avgProb += p.SendProbability()
		chosen[i] = p.Choose(g.src)
		sent[i] = chosen[i] == Send
	}
	avgProb /= float64(n)
	vals := fading.SampleSINRsInto(g.m, sent, fading.RayleighGains{}, g.src, make([]float64, n), make([]int, 0, n))
	r := Round{Sent: sent, Succeeded: make([]bool, n), RewardSend: make([]float64, n), AvgSendProb: avgProb}
	for i := 0; i < n; i++ {
		var reached bool
		if sent[i] {
			reached = vals[i] >= g.beta
			if reached {
				r.Succeeded[i] = true
				r.Successes++
			}
		} else {
			row := g.m.Incoming(i)
			own := g.src.Exp(row[i])
			interf := g.m.Noise
			for j, s := range sent {
				if s && j != i {
					interf += g.src.Exp(row[j])
				}
			}
			if interf == 0 {
				reached = own > 0
			} else {
				reached = own/interf >= g.beta
			}
		}
		r.RewardSend[i] = -1
		if reached {
			r.RewardSend[i] = 1
		}
	}
	for i, p := range g.learners {
		losses := [2]float64{Idle: LossIdle, Send: LossOther}
		if r.RewardSend[i] < 0 {
			losses[Send] = LossSendFail
		}
		p.Observe(chosen[i], losses)
	}
	return r
}

// TestGameMatchesReferenceAtPositiveNoise pins the Rayleigh game to
// referenceStep at positive noise, where the Counter's bounded tiers decide
// most receivers, on a matrix with some zero gains.
func TestGameMatchesReferenceAtPositiveNoise(t *testing.T) {
	m := zeroSomeGains(fig2Net(t, 41, 60).Gains())
	own := make([]float64, m.N)
	for i := range own {
		own[i] = m.Own(i)
	}
	slices.Sort(own)
	for _, scale := range []float64{1e-6, 0.01, 0.2} {
		m.Noise = scale * own[m.N/2]
		checkGameMatchesReference(t, m)
	}
}

// TestGameMatchesReferenceAtZeroNoise pins the game at Figure 2's own
// ν = 0, which the Counter's coarse tier decides too, on the same matrix
// with and without its zero gains.
func TestGameMatchesReferenceAtZeroNoise(t *testing.T) {
	m := fig2Net(t, 41, 60).Gains()
	if m.Noise != 0 {
		t.Fatalf("Figure 2's network has ν = %g, want 0", m.Noise)
	}
	checkGameMatchesReference(t, m)
	checkGameMatchesReference(t, zeroSomeGains(m))
}

// zeroSomeGains zeroes the gain from sender i+3 at every seventh receiver
// i, so some rows draw per sender, and returns m.
func zeroSomeGains(m *network.Matrix) *network.Matrix {
	for i := 0; i < m.N; i += 7 {
		m.SetGain((i+3)%m.N, i, 0)
	}
	return m
}

// checkGameMatchesReference plays 200 rounds of the Rayleigh game on m
// beside referenceStep from the same seed: every round, and the stream
// position after the last, must agree, and the rounds must hold both
// successes and failures.
func checkGameMatchesReference(t *testing.T, m *network.Matrix) {
	t.Helper()
	got := NewGame(m, 0.5, Rayleigh, rng.New(43))
	want := NewGame(m, 0.5, Rayleigh, rng.New(43))
	successes, failures := 0, 0
	for round := 0; round < 200; round++ {
		a, b := got.step(), referenceStep(want)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("ν=%g round %d: game %+v, reference %+v", m.Noise, round, a, b)
		}
		for i, s := range a.Sent {
			if s && !a.Succeeded[i] {
				failures++
			}
		}
		successes += a.Successes
	}
	if got.src.Uint64() != want.src.Uint64() {
		t.Fatalf("ν=%g: the game consumed a different number of draws", m.Noise)
	}
	if successes == 0 || failures == 0 {
		t.Fatalf("ν=%g: %d successes and %d failures; the comparison needs both", m.Noise, successes, failures)
	}
}

// TestNonFadingDecisionAllocationFree pins that deciding a non-fading round
// — every sender's success and every idle link's counterfactual —
// allocates nothing.
func TestNonFadingDecisionAllocationFree(t *testing.T) {
	m := fig2Net(t, 3, 100).Gains()
	g := NewGame(m, 0.5, NonFading, rng.New(5))
	src := rng.New(6)
	sent := make([]bool, m.N)
	succeeded := make([]bool, m.N)
	rewardSend := make([]float64, m.N)
	for _, density := range []float64{0, 0.1, 0.5, 1} {
		for i := range sent {
			sent[i] = src.Bernoulli(density)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			g.decide(sent, succeeded, rewardSend)
		}); allocs != 0 {
			t.Errorf("a non-fading round's decision at density %.1f allocates %.1f objects per run", density, allocs)
		}
	}
}

// Determinism: identical seeds give identical histories.
func TestGameDeterministic(t *testing.T) {
	net := fig2Net(t, 11, 20)
	a := NewGame(net.Gains(), 0.5, Rayleigh, rng.New(31)).Run(50)
	b := NewGame(net.Gains(), 0.5, Rayleigh, rng.New(31)).Run(50)
	for t2 := range a.Rounds {
		if a.Rounds[t2].Successes != b.Rounds[t2].Successes {
			t.Fatalf("round %d diverged across identical seeds", t2)
		}
	}
}

func BenchmarkGameRoundNonFading100(b *testing.B) {
	cfg := network.Figure2Config()
	cfg.N = 100
	net, err := network.Random(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	g := NewGame(net.Gains(), 0.5, NonFading, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.step()
	}
}

func BenchmarkGameRoundRayleigh100(b *testing.B) {
	cfg := network.Figure2Config()
	cfg.N = 100
	net, err := network.Random(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	g := NewGame(net.Gains(), 0.5, Rayleigh, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.step()
	}
}
