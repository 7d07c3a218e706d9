package sim

import (
	"fmt"
	"slices"
	"testing"

	"rayfade/internal/fading"
	"rayfade/internal/latency"
	"rayfade/internal/network"
	"rayfade/internal/regret"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/stats"
)

// fixedLearner always plays the same action, so a regret game round
// transmits a chosen set.
type fixedLearner int

func (a fixedLearner) Choose(*rng.Source) int   { return int(a) }
func (fixedLearner) Observe(int, [2]float64)    {}
func (a fixedLearner) SendProbability() float64 { return float64(a) }

// TestZeroOwnGainEdgeAgrees plays TestCountSuccessesNoiselessEdges' matrix
// at ν = 0, where link 1 has a zero own gain and hears nothing: with no
// interference it fails, in every model. Each active link's success in
// sinr, the Figure-1 count, the regret game's realized round, the latency
// package's non-fading model and the Counter agree, and so does each idle
// link's counterfactual in sinr, the game and the Counter.
func TestZeroOwnGainEdgeAgrees(t *testing.T) {
	m, err := network.NewMatrix([][]float64{
		{1, 0, 0.5},
		{0, 0, 0},
		{0.5, 0, 1},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := fading.NewCounter(m)
	for _, tc := range []struct {
		active []bool
		beta   float64
		want   int
	}{
		{[]bool{true, false, false}, 1e300, 1},
		{[]bool{true, true, false}, 50, 1},
		{[]bool{false, true, false}, 2.5, 0},
		{[]bool{false, true, false}, 0, 1},
		{[]bool{true, true, true}, 1e300, 0},
	} {
		// The Rayleigh side: every success and counterfactual.
		ok := make([]bool, m.N)
		if got := c.Count(tc.active, tc.beta, rng.New(1), ok); got != tc.want {
			t.Fatalf("active=%v β=%g: Counter.Count %d, want %d", tc.active, tc.beta, got, tc.want)
		}
		reach := slices.Clone(ok)
		for i, a := range tc.active {
			if !a {
				reach[i] = c.Counterfactual(i, tc.beta, rng.New(1))
			}
		}
		var want []int
		for i, o := range ok {
			if o {
				want = append(want, i)
			}
		}
		fail := func(what string, got any) {
			t.Helper()
			t.Errorf("active=%v β=%g: %s %v, Counter %v (counterfactuals %v)", tc.active, tc.beta, what, got, ok, reach)
		}

		idx := sinr.ActiveList(tc.active, nil)
		vals := sinr.Values(m, tc.active)
		k := 0
		for i, a := range tc.active {
			if a && (vals[i] >= tc.beta) != ok[i] {
				fail("sinr.Values", vals)
			}
			if got := sinr.SINRAt(m, idx, k, i) >= tc.beta; got != reach[i] {
				fail(fmt.Sprintf("sinr.SINRAt of link %d", i), got)
			}
			if a {
				k++
			}
		}
		if got := sinr.CountSuccesses(m, idx, tc.beta); got != tc.want {
			fail("the Figure-1 count", got)
		}
		if got := sinr.AppendSuccesses(nil, m, idx, tc.beta); !slices.Equal(got, want) {
			fail("sinr.AppendSuccesses", got)
		}
		if got := sinr.Feasible(m, idx, tc.beta); got != (len(want) == len(idx)) {
			fail("sinr.Feasible", got)
		}
		if !slices.Contains(tc.active, false) {
			nf, rl := stats.NewSeries([]float64{1}), stats.NewSeries([]float64{1})
			observeCurves(nf, rl, m, []float64{1}, 1, 1, tc.beta, rng.New(1))
			if got := nf.Means()[0]; got != float64(tc.want) {
				fail("observeCurves' non-fading count", got)
			}
		}
		if got := (&latency.NonFading{}).Successes(m, tc.active, tc.beta); !slices.Equal(got, want) {
			fail("latency.NonFading", got)
		}
		if tc.beta > 0 { // the game needs a positive threshold
			learners := make([]regret.Learner, m.N)
			for i, a := range tc.active {
				learners[i] = fixedLearner(regret.Idle)
				if a {
					learners[i] = fixedLearner(regret.Send)
				}
			}
			r := regret.NewGameWithLearners(m, tc.beta, regret.NonFading, learners, rng.New(1)).Run(1).Rounds[0]
			if !slices.Equal(r.Succeeded, ok) || r.Successes != tc.want {
				fail("the regret game's realized round", r.Succeeded)
			}
			for i, rw := range r.RewardSend {
				if (rw > 0) != reach[i] {
					fail("the regret game's send rewards", r.RewardSend)
				}
			}
		}
	}
}
