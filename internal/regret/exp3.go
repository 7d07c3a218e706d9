package regret

import (
	"fmt"
	"math"

	"rayfade/internal/rng"
)

// Learner is a two-action online learning algorithm. The game runner calls
// Choose at the start of a round and Observe at its end with the full loss
// vector; bandit-feedback learners (Exp3) must look only at the loss of the
// action they chose, full-information learners (RWM) may use both entries.
type Learner interface {
	// Choose samples the round's action.
	Choose(src *rng.Source) int
	// Observe consumes the round's losses (indexed by action). chosen is
	// the action the learner actually played.
	Observe(chosen int, losses [2]float64)
	// SendProbability reports the current probability of playing Send.
	SendProbability() float64
}

// Observe implements Learner for RWM: full information, the chosen action
// is irrelevant.
func (r *RWM) Observe(_ int, losses [2]float64) { r.Update(losses) }

var _ Learner = (*RWM)(nil)

// Exp3 is the exponential-weights bandit algorithm of Auer, Cesa-Bianchi,
// Freund, and Schapire ("The nonstochastic multiarmed bandit problem",
// SIAM J. Comput. 2002) for two actions — the reference the paper gives
// for no-regret algorithms. Unlike RWM it only uses the loss of the action
// actually played, which models links that cannot evaluate counterfactual
// transmissions.
type Exp3 struct {
	w     [2]float64
	gamma float64
	// lastP caches the distribution used for the most recent Choose, for
	// the importance-weighted update.
	lastP [2]float64
}

// NewExp3 returns a learner with exploration rate gamma ∈ (0,1].
func NewExp3(gamma float64) *Exp3 {
	if gamma <= 0 || gamma > 1 {
		panic(fmt.Sprintf("regret: Exp3 exploration rate %g outside (0,1]", gamma))
	}
	e := &Exp3{w: [2]float64{1, 1}, gamma: gamma}
	e.refreshProbs()
	return e
}

func (e *Exp3) refreshProbs() {
	total := e.w[0] + e.w[1]
	for a := range e.lastP {
		e.lastP[a] = (1-e.gamma)*e.w[a]/total + e.gamma/2
	}
}

// Choose implements Learner.
func (e *Exp3) Choose(src *rng.Source) int {
	e.refreshProbs()
	if src.Float64() < e.lastP[Idle] {
		return Idle
	}
	return Send
}

// SendProbability implements Learner.
func (e *Exp3) SendProbability() float64 {
	e.refreshProbs()
	return e.lastP[Send]
}

// Observe implements Learner. Only losses[chosen] is consulted — Exp3 is a
// bandit algorithm. Losses in [0,1] are converted to rewards 1−loss and
// importance-weighted by the probability of the chosen action.
func (e *Exp3) Observe(chosen int, losses [2]float64) {
	loss := losses[chosen]
	if loss < 0 || loss > 1 {
		panic(fmt.Sprintf("regret: Exp3 loss %g outside [0,1]", loss))
	}
	reward := 1 - loss
	est := reward / e.lastP[chosen]
	e.w[chosen] *= math.Exp(e.gamma * est / 2)
	// Keep weights bounded: only ratios matter.
	maxW := math.Max(e.w[0], e.w[1])
	if maxW > 1e100 {
		e.w[0] /= maxW
		e.w[1] /= maxW
	}
	e.refreshProbs()
}

var _ Learner = (*Exp3)(nil)
