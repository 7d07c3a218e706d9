// Package regret implements the distributed, game-theoretic approach to
// capacity maximization of the paper's Sections 6 and 7: every link is a
// player with two actions per round — transmit or stay silent — running a
// no-regret learning algorithm against the rewards
//
//	h_i = +1  transmit and succeed (SINR ≥ β),
//	h_i = −1  transmit and fail,
//	h_i =  0  stay silent.
//
// The concrete learner is the Randomized Weighted Majority variant the
// paper simulates (Section 7): losses are 1 for a failed transmission, 0.5
// for staying silent, and 0 otherwise; weights are multiplied by (1−η)^loss;
// η starts at √0.5 and is multiplied by √0.5 whenever the round count
// crosses the next power of two.
//
// The game runner plays n learners against each other under either
// interference model, records per-round successes (the paper's Figure 2
// series), and keeps full-information reward histories so the external
// regret of Definition 2 — and with it the premise of Theorem 4 and the
// X ≤ F ≤ 2X + εn relation of Lemma 5 — can be measured exactly.
package regret

import (
	"fmt"
	"math"

	"rayfade/internal/fading"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
)

// Action indices.
const (
	Idle = 0
	Send = 1
)

// Losses of the paper's Section 7.
const (
	LossSendFail = 1.0
	LossIdle     = 0.5
	LossOther    = 0.0
)

// RWM is the Randomized Weighted Majority learner over the two actions,
// parameterized exactly as in the paper's simulations.
type RWM struct {
	w     [2]float64
	eta   float64
	steps int
	// nextPow is the next power of two at which η is decayed.
	nextPow int
}

// NewRWM returns a fresh learner with unit weights and η = √0.5.
func NewRWM() *RWM {
	return &RWM{w: [2]float64{1, 1}, eta: math.Sqrt(0.5), nextPow: 2}
}

// Weights returns the current action weights (exposed for tests).
func (r *RWM) Weights() [2]float64 { return r.w }

// Choose samples an action with probability proportional to the weights.
func (r *RWM) Choose(src *rng.Source) int {
	total := r.w[0] + r.w[1]
	if total <= 0 {
		// Both weights underflowed to zero; reset to uniform rather than
		// dividing by zero. Normalization in Update makes this unreachable
		// in practice.
		r.w = [2]float64{1, 1}
		total = 2
	}
	if src.Float64()*total < r.w[Idle] {
		return Idle
	}
	return Send
}

// SendProbability returns the current probability of choosing Send.
func (r *RWM) SendProbability() float64 {
	total := r.w[0] + r.w[1]
	if total <= 0 {
		return 0.5
	}
	return r.w[Send] / total
}

// Update applies the losses of the finished round to both actions and
// advances the η schedule: whenever the number of completed rounds crosses
// the next power of two, η is multiplied by √0.5.
func (r *RWM) Update(losses [2]float64) {
	for a, l := range losses {
		if l < 0 {
			panic(fmt.Sprintf("regret: negative loss %g", l))
		}
		r.w[a] *= math.Pow(1-r.eta, l)
	}
	// Normalize so weights stay in a sane floating-point range over long
	// horizons; Choose only uses their ratio.
	maxW := math.Max(r.w[0], r.w[1])
	if maxW > 0 && maxW < 1e-100 {
		r.w[0] /= maxW
		r.w[1] /= maxW
	}
	r.steps++
	if r.steps > r.nextPow {
		r.eta *= math.Sqrt(0.5)
		r.nextPow *= 2
	}
}

// Model selects the interference model the game is played in.
type Model int

// Supported models.
const (
	NonFading Model = iota
	Rayleigh
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case NonFading:
		return "non-fading"
	case Rayleigh:
		return "rayleigh"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Round records one step of the game: who transmitted, who succeeded, the
// full-information reward each player would have received from sending
// (idling always rewards 0), and the mean send probability across players
// before the round — the convergence diagnostic behind the Figure-2 curves.
type Round struct {
	Sent        []bool
	Succeeded   []bool
	Successes   int
	RewardSend  []float64
	AvgSendProb float64
}

// History is the recorded trajectory of a game run.
type History struct {
	Model  Model
	Rounds []Round
	N      int
}

// Game couples n learners (one per link) to an interference instance.
type Game struct {
	m        *network.Matrix
	beta     float64
	model    Model
	learners []Learner
	src      *rng.Source
	// counter decides every Rayleigh success, realized and counterfactual;
	// idx holds the non-fading round's active list. Both are per-game
	// scratch, which keeps long Figure-2 runs off the garbage collector.
	counter *fading.Counter
	idx     []int
}

// NewGame creates a game over the matrix at threshold beta, equipping every
// link with the paper's RWM learner. All randomness (action sampling and
// fading draws) comes from src. Use NewGameWithLearners for other
// algorithms (e.g. Exp3 bandit feedback).
func NewGame(m *network.Matrix, beta float64, model Model, src *rng.Source) *Game {
	learners := make([]Learner, m.N)
	for i := range learners {
		learners[i] = NewRWM()
	}
	return NewGameWithLearners(m, beta, model, learners, src)
}

// NewGameWithLearners creates a game where each link runs the provided
// learner (one per link). It generalizes NewGame, which equips every link
// with the paper's RWM variant.
func NewGameWithLearners(m *network.Matrix, beta float64, model Model, learners []Learner, src *rng.Source) *Game {
	if !(beta > 0) {
		panic(fmt.Sprintf("regret: threshold β = %g must be positive", beta))
	}
	if len(learners) != m.N {
		panic(fmt.Sprintf("regret: %d learners for %d links", len(learners), m.N))
	}
	g := &Game{m: m, beta: beta, model: model, learners: learners, src: src}
	if model == Rayleigh {
		g.counter = fading.NewCounter(m)
	} else {
		g.idx = make([]int, 0, m.N)
	}
	return g
}

// step plays one round and returns its record.
func (g *Game) step() Round {
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
	succeeded := make([]bool, n)
	rewardSend := make([]float64, n)
	successes := g.decide(sent, succeeded, rewardSend)
	// Update learners with the Section-7 losses for both actions (bandit
	// learners will only consult the entry for the action they played).
	for i, p := range g.learners {
		var losses [2]float64
		losses[Idle] = LossIdle
		if rewardSend[i] < 0 {
			losses[Send] = LossSendFail
		} else {
			losses[Send] = LossOther
		}
		p.Observe(chosen[i], losses)
	}
	return Round{
		Sent:        sent,
		Succeeded:   succeeded,
		Successes:   successes,
		RewardSend:  rewardSend,
		AvgSendProb: avgProb,
	}
}

// decide settles the round in which the links with sent[i] set transmit:
// it sets succeeded[i] for each sender that reaches β and rewardSend[i] to
// +1 or −1 for every link, and returns the number of successes. An idle
// link's reward is the counterfactual — would i have succeeded had it also
// transmitted? Only i's own success matters. It allocates nothing.
func (g *Game) decide(sent, succeeded []bool, rewardSend []float64) int {
	if g.model == Rayleigh {
		// One prepared set serves the round: its realization and every
		// idle link's counterfactual.
		g.counter.Prepare(sent)
		successes := g.counter.Realize(g.beta, g.src, succeeded)
		for i, s := range sent {
			rewardSend[i] = sendReward(succeeded[i] || !s && g.counter.Counterfactual(i, g.beta, g.src))
		}
		return successes
	}
	// One active list serves the round: link i decided against it is its
	// realized success if it sent and its counterfactual if it idled.
	g.idx = sinr.ActiveList(sent, g.idx)
	successes, k := 0, 0 // k counts the senders below link i
	for i, s := range sent {
		ok := sinr.SINRAt(g.m, g.idx, k, i) >= g.beta
		succeeded[i] = s && ok
		if s {
			k++
			if ok {
				successes++
			}
		}
		rewardSend[i] = sendReward(ok)
	}
	return successes
}

// sendReward is the reward h_i of sending: +1 on success, −1 on failure.
func sendReward(ok bool) float64 {
	if ok {
		return 1
	}
	return -1
}

// Run plays T rounds and returns the trajectory.
func (g *Game) Run(T int) *History {
	if T <= 0 {
		panic(fmt.Sprintf("regret: horizon T = %d must be positive", T))
	}
	h := &History{Model: g.model, Rounds: make([]Round, 0, T), N: g.m.N}
	for t := 0; t < T; t++ {
		h.Rounds = append(h.Rounds, g.step())
	}
	return h
}

// SuccessSeries returns the per-round number of successful transmissions —
// the curves of the paper's Figure 2.
func (h *History) SuccessSeries() []int {
	out := make([]int, len(h.Rounds))
	for t, r := range h.Rounds {
		out[t] = r.Successes
	}
	return out
}

// realizedReward returns player i's actual reward in round r.
func realizedReward(r Round, i int) float64 {
	if !r.Sent[i] {
		return 0
	}
	return r.RewardSend[i]
}

// ExternalRegret computes player i's external regret after T = len(Rounds)
// rounds per Definition 2: the best fixed action's cumulative reward minus
// the realized cumulative reward.
func (h *History) ExternalRegret(i int) float64 {
	var sendSum, realized float64
	for _, r := range h.Rounds {
		sendSum += r.RewardSend[i]
		realized += realizedReward(r, i)
	}
	best := math.Max(sendSum, 0) // the fixed Idle action earns 0
	return best - realized
}

// MaxAverageRegret returns the largest per-round external regret across
// players: max_i regret_i / T. No-regret dynamics drive this to 0.
func (h *History) MaxAverageRegret() float64 {
	worst := math.Inf(-1)
	T := float64(len(h.Rounds))
	for i := 0; i < h.N; i++ {
		if r := h.ExternalRegret(i) / T; r > worst {
			worst = r
		}
	}
	return worst
}

// ExpectedReward returns h̄_i(q), the expectation of the stochastic reward
// h_i under Rayleigh fading when the links transmit with probabilities q
// (paper Section 6): 0 if link i stays silent (q_i = 0); otherwise, for a
// transmitting link, 2·Q_i(q,β) − 1 conditioned on transmission — obtained
// here for the pure-strategy profile by dividing out q_i.
func ExpectedReward(m *network.Matrix, q []float64, beta float64, i int) float64 {
	if q[i] == 0 {
		return 0
	}
	// Q_i includes the q_i factor; the reward expectation conditions on
	// link i actually transmitting.
	conditional := fading.ExactSuccess(m, q, beta, i) / q[i]
	return 2*conditional - 1
}

// Lemma5Stats holds the quantities of the paper's Lemma 5.
type Lemma5Stats struct {
	// F = Σ_i f_i, where f_i is the fraction of rounds player i transmits.
	F float64
	// X = Σ_i x_i, where x_i is the average per-round success rate of
	// player i (realized successes as the empirical stand-in for the
	// expected success probability).
	X float64
	// Epsilon is the maximum average external regret across players.
	Epsilon float64
}

// Lemma5 measures F, X, and ε on a trajectory. The lemma asserts
// X ≤ F ≤ 2X + εn for the expected quantities; tests verify the empirical
// version within sampling noise.
func (h *History) Lemma5() Lemma5Stats {
	T := float64(len(h.Rounds))
	var F, X float64
	for i := 0; i < h.N; i++ {
		var sent, succ float64
		for _, r := range h.Rounds {
			if r.Sent[i] {
				sent++
				if r.Succeeded[i] {
					succ++
				}
			}
		}
		F += sent / T
		X += succ / T
	}
	return Lemma5Stats{F: F, X: X, Epsilon: h.MaxAverageRegret()}
}

// RoundsToConverge returns the first round t such that the moving average
// of successes over the next `window` rounds stays within `tol` (relative)
// of the final converged level, or -1 if the trajectory never settles. It
// quantifies the paper's "good performance can already be seen after 30 to
// 40 time steps" observation. It has no production caller; it stays
// because it states that remark (TestRoundsToConvergeMatchesPaperBand).
func (h *History) RoundsToConverge(window int, tol float64) int {
	if window <= 0 || window > len(h.Rounds) {
		window = len(h.Rounds) / 4
		if window == 0 {
			window = 1
		}
	}
	if tol <= 0 {
		tol = 0.1
	}
	final := h.AverageSuccesses(window)
	if final == 0 {
		return -1
	}
	avg := func(start int) float64 {
		end := start + window
		if end > len(h.Rounds) {
			end = len(h.Rounds)
		}
		sum := 0.0
		for _, r := range h.Rounds[start:end] {
			sum += float64(r.Successes)
		}
		return sum / float64(end-start)
	}
	for t := 0; t+window <= len(h.Rounds); t++ {
		if math.Abs(avg(t)-final)/final <= tol {
			return t + 1
		}
	}
	return -1
}

// AverageSuccesses returns the mean per-round number of successes over the
// trailing `window` rounds (the converged throughput the paper compares to
// the optimum); window ≤ 0 averages the whole run.
func (h *History) AverageSuccesses(window int) float64 {
	if len(h.Rounds) == 0 {
		return 0
	}
	start := 0
	if window > 0 && window < len(h.Rounds) {
		start = len(h.Rounds) - window
	}
	sum := 0.0
	for _, r := range h.Rounds[start:] {
		sum += float64(r.Successes)
	}
	return sum / float64(len(h.Rounds)-start)
}
