// Package rayfade is a library for wireless link scheduling under SINR
// interference, with first-class support for the Rayleigh-fading model and
// the non-fading ↔ Rayleigh reduction of Dams, Hoefer, and Kesselheim
// ("Scheduling in Wireless Networks with Rayleigh-Fading Interference",
// SPAA 2012).
//
// The central object is the Scenario: a set of communication links with an
// SINR threshold. A Scenario answers questions in both interference models —
// deterministic SINRs and feasibility on the non-fading side; exact success
// probabilities (Theorem 1), bounds (Lemma 1), and sampling on the Rayleigh
// side — and runs the scheduling algorithms the paper's reduction transfers:
// capacity maximization, latency minimization, optimum simulation
// (Algorithm 1), and distributed regret learning.
//
// Minimal use:
//
//	scn, err := rayfade.NewScenario(rayfade.Figure1Workload(), 2.5, 1)
//	set := scn.GreedyCapacity()               // non-fading solution
//	rep := scn.TransferToRayleigh(set)        // Lemma-2 guarantee
//	exp := scn.ExpectedRayleighSuccesses(set) // exact Theorem-1 value
//
// Everything is deterministic given the seeds supplied; no global state.
package rayfade

import (
	"context"
	"fmt"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/graphsched"
	"rayfade/internal/latency"
	"rayfade/internal/netio"
	"rayfade/internal/network"
	"rayfade/internal/opt"
	"rayfade/internal/regret"
	"rayfade/internal/rng"
	"rayfade/internal/sinr"
	"rayfade/internal/transform"
	"rayfade/internal/utility"
)

// Re-exported building blocks. The aliased packages remain internal; these
// aliases are the supported surface.
type (
	// Network is a set of links in a metric space with path loss and noise.
	Network = network.Network
	// Link is one sender→receiver communication request.
	Link = network.Link
	// NetworkConfig describes a random-network workload.
	NetworkConfig = network.Config
	// PowerAssignment maps link length to transmission power.
	PowerAssignment = network.PowerAssignment
	// UniformPower assigns every link the same power.
	UniformPower = network.UniformPower
	// SquareRootPower assigns power proportional to sqrt(length^α).
	SquareRootPower = network.SquareRootPower
	// LinearPower assigns power proportional to length^α.
	LinearPower = network.LinearPower
	// Utility maps an achieved SINR to a value (paper Definition 1).
	Utility = utility.Func
	// BinaryUtility is the threshold success indicator.
	BinaryUtility = utility.Binary
	// ShannonUtility is log(1+SINR).
	ShannonUtility = utility.Shannon
	// TransferReport is the Lemma-2 transfer guarantee.
	TransferReport = transform.TransferReport
	// SimulationStep is one probability level of Algorithm 1.
	SimulationStep = transform.Step
	// RegretHistory records a no-regret learning run.
	RegretHistory = regret.History
	// RayleighGains is the paper's fading model: exponential received power.
	RayleighGains = fading.RayleighGains
	// NakagamiGains is Nakagami-m fading: Gamma received power of shape M.
	NakagamiGains = fading.NakagamiGains
)

// Figure1Workload returns the random-network workload of the paper's
// Figure 1 (100 links, 1000×1000 plane, lengths 20–40, α=2.2, ν=4e-7,
// uniform power 2).
func Figure1Workload() NetworkConfig { return network.Figure1Config() }

// Figure2Workload returns the workload of the paper's Figure 2 (200 links,
// lengths (0,100], α=2.1, ν=0, uniform power 2).
func Figure2Workload() NetworkConfig { return network.Figure2Config() }

// Scenario couples a network to an SINR threshold and caches the gain
// matrix. Create one with NewScenario or FromNetwork. Methods that consume
// randomness take it from the scenario's seeded stream; a Scenario is not
// safe for concurrent use (clone the network and build per-goroutine
// scenarios instead).
type Scenario struct {
	net  *Network
	m    *network.Matrix
	plan *fading.Plan
	beta float64
	src  *rng.Source
}

// NewScenario draws a random network from the workload and wraps it at the
// given SINR threshold. The seed fixes both the topology and all later
// stochastic operations on the scenario.
func NewScenario(cfg NetworkConfig, beta float64, seed uint64) (*Scenario, error) {
	src := rng.New(seed)
	net, err := network.Random(cfg, src)
	if err != nil {
		return nil, err
	}
	return fromNetwork(net, beta, src)
}

// LoadScenario reads a network from a netio/raygen JSON file and wraps it
// at the given threshold, seeding the scenario's randomness with seed.
func LoadScenario(path string, beta float64, seed uint64) (*Scenario, error) {
	net, err := netio.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return fromNetwork(net, beta, rng.New(seed))
}

// SaveNetwork writes the scenario's network to a netio JSON file, so the
// exact instance can be archived and replayed.
func (s *Scenario) SaveNetwork(path string) error {
	return netio.SaveFile(path, s.net)
}

// FromNetwork wraps an existing, caller-constructed network (e.g. measured
// topology, custom generator) at the given threshold, seeding the
// scenario's stochastic operations with seed.
func FromNetwork(net *Network, beta float64, seed uint64) (*Scenario, error) {
	return fromNetwork(net, beta, rng.New(seed))
}

// fromNetwork is the internal constructor; src may be nil, in which case
// stochastic methods panic until Reseed is called.
func fromNetwork(net *Network, beta float64, src *rng.Source) (*Scenario, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if beta <= 0 {
		return nil, fmt.Errorf("rayfade: SINR threshold β = %g must be positive", beta)
	}
	m := net.Gains()
	return &Scenario{net: net, m: m, plan: fading.NewPlan(m), beta: beta, src: src}, nil
}

// Reseed replaces the scenario's randomness stream.
func (s *Scenario) Reseed(seed uint64) { s.src = rng.New(seed) }

// N returns the number of links.
func (s *Scenario) N() int { return s.m.N }

// Beta returns the SINR threshold.
func (s *Scenario) Beta() float64 { return s.beta }

// Network returns the underlying network (shared, not a copy).
func (s *Scenario) Network() *Network { return s.net }

// rngOrPanic returns the stream, failing loudly if the scenario has none.
func (s *Scenario) rngOrPanic() *rng.Source {
	if s.src == nil {
		panic("rayfade: scenario has no randomness source; call Reseed")
	}
	return s.src
}

// --- Non-fading model -------------------------------------------------

// NonFadingSINRs returns γ_i^nf for every link when exactly the given set
// transmits (0 for links outside the set).
func (s *Scenario) NonFadingSINRs(set []int) []float64 {
	return sinr.Values(s.m, sinr.SetToActive(s.m.N, set))
}

// Feasible reports whether the set is simultaneously successful at the
// scenario threshold in the non-fading model.
func (s *Scenario) Feasible(set []int) bool {
	return sinr.Feasible(s.m, set, s.beta)
}

// GreedyCapacity runs the length-ordered affectance greedy (uniform /
// monotone powers) and returns a feasibility-certified set.
func (s *Scenario) GreedyCapacity() []int {
	set, _ := capacity.GreedyAffectanceCtx(context.Background(), s.m, s.beta, capacity.DefaultTau, capacity.LengthOrder(s.net))
	return set
}

// PowerControlCapacity runs the greedy power-control capacity algorithm and
// returns the selected set with its certifying powers.
func (s *Scenario) PowerControlCapacity() capacity.PowerControlResult {
	res, _ := capacity.PowerControlGreedyCtx(context.Background(), s.net, s.beta)
	return res
}

// OptimumEstimate estimates the maximum feasible set by local search
// (restarts × swap passes per internal defaults). The result is always
// feasible, hence a witnessed lower bound on the true optimum.
func (s *Scenario) OptimumEstimate() []int {
	return opt.LocalSearch(s.m, s.beta, opt.DefaultLocalSearch, s.rngOrPanic())
}

// ExactOptimum computes the true maximum feasible set by branch-and-bound.
// It panics for networks larger than opt.MaxBruteForceN links.
func (s *Scenario) ExactOptimum() []int {
	return opt.BruteForce(s.m, s.beta)
}

// --- Rayleigh model ----------------------------------------------------

// RayleighSuccessProbability returns Q_i(q, β) in closed form (Theorem 1):
// the probability that link i reaches the threshold when every link j
// transmits independently with probability q[j].
func (s *Scenario) RayleighSuccessProbability(q []float64, i int) float64 {
	return fading.ExactSuccess(s.m, q, s.beta, i)
}

// RayleighSuccessBounds returns the Lemma-1 lower and upper bounds on
// Q_i(q, β).
func (s *Scenario) RayleighSuccessBounds(q []float64, i int) (lo, hi float64) {
	return fading.LowerBound(s.m, q, s.beta, i), fading.UpperBound(s.m, q, s.beta, i)
}

// ExpectedRayleighSuccesses returns the exact expected number of successes
// when exactly the given set transmits under Rayleigh fading.
func (s *Scenario) ExpectedRayleighSuccesses(set []int) float64 {
	return fading.ExpectedBinaryValueOfSet(s.m, set, s.beta)
}

// SampleRayleighSuccesses draws one fading realization for the transmitting
// set and returns which links succeeded.
func (s *Scenario) SampleRayleighSuccesses(set []int) []int {
	ok := make([]bool, s.m.N)
	s.plan.Counter().Count(sinr.SetToActive(s.m.N, set), s.beta, s.rngOrPanic(), ok)
	return sinr.ActiveList(ok, nil)
}

// ExpectedUtilityMC estimates E[Σ u(γ^R)] for transmission probabilities q
// by Monte Carlo with the given sample count.
func (s *Scenario) ExpectedUtilityMC(q []float64, u Utility, samples int) fading.MCResult {
	return fading.ExpectedUtilityMC(s.m, q, utility.Uniform(u), samples, s.rngOrPanic())
}

// --- The reduction -----------------------------------------------------

// TransferToRayleigh applies Lemma 2 to a non-fading solution set with
// binary utilities at the scenario threshold: the identical set, transmitted
// under Rayleigh fading, keeps at least a 1/e fraction of its value.
func (s *Scenario) TransferToRayleigh(set []int) TransferReport {
	return transform.Transfer(s.m, set, utility.Uniform(utility.Binary{Beta: s.beta}))
}

// SimulationSchedule builds the Algorithm-1 schedule simulating the
// Rayleigh transmission probabilities q with O(log* n) non-fading steps.
func (s *Scenario) SimulationSchedule(q []float64) []SimulationStep {
	return transform.Schedule(q, transform.ScheduleRepeats)
}

// BestSimulationStep evaluates the schedule's steps in the non-fading model
// (Monte Carlo, samplesPerStep each) and returns the best single step — the
// probability assignment Theorem 2 guarantees is within O(log* n) of the
// Rayleigh optimum.
func (s *Scenario) BestSimulationStep(q []float64, samplesPerStep int) transform.StepValue {
	best, _, _ := transform.BestStepCtx(context.Background(), s.m, s.SimulationSchedule(q),
		utility.Uniform(utility.Binary{Beta: s.beta}), samplesPerStep, s.rngOrPanic())
	return best
}

// --- Latency -----------------------------------------------------------

// RepeatedCapacitySchedule builds a full non-fading schedule (every link
// succeeds once) by repeated single-slot maximization.
func (s *Scenario) RepeatedCapacitySchedule() ([][]int, error) {
	capFn := latency.GreedyCapacity(capacity.LengthOrder(s.net), capacity.DefaultTau)
	return latency.RepeatedCapacityCtx(context.Background(), s.m, s.beta, capFn)
}

// PlayScheduleRayleigh replays a schedule under Rayleigh fading with the
// Section-4 repetition factor until every link succeeds (or maxRounds
// replays are exhausted). It returns the slots consumed.
func (s *Scenario) PlayScheduleRayleigh(slots [][]int, maxRounds int) (int, bool) {
	slotsUsed, done, _ := latency.RepeatUntilDoneCtx(context.Background(), s.m, slots, s.beta, transform.AlohaRepeats, maxRounds,
		latency.NewRayleigh(s.plan.Counter(), s.rngOrPanic()))
	return slotsUsed, done
}

// Aloha runs the distributed contention protocol with per-slot transmission
// probability p. Under model "rayleigh" each randomized step is executed
// transform.AlohaRepeats times, per the Section-4 transformation.
func (s *Scenario) Aloha(p float64, rayleigh bool) latency.AlohaResult {
	cfg := latency.AlohaConfig{Prob: p}
	var model latency.SuccessModel = &latency.NonFading{}
	if rayleigh {
		cfg.Repeats = transform.AlohaRepeats
		model = latency.NewRayleigh(s.plan.Counter(), s.rngOrPanic())
	}
	res, _ := latency.AlohaCtx(context.Background(), s.m, s.beta, cfg, s.rngOrPanic(), model)
	return res
}

// --- Regret learning ---------------------------------------------------

// RunRegretLearning plays the Section-7 RWM dynamics for the given number
// of rounds and returns the trajectory (per-round successes, regret,
// Lemma-5 statistics).
func (s *Scenario) RunRegretLearning(rounds int, rayleigh bool) *RegretHistory {
	model := regret.NonFading
	if rayleigh {
		model = regret.Rayleigh
	}
	return regret.NewGame(s.m, s.beta, model, s.rngOrPanic().Split()).Run(rounds)
}

// RunBanditLearning plays the same game as RunRegretLearning but with Exp3
// bandit learners (Auer et al.), which consume only the reward of the action
// actually played — the natural model for links that cannot evaluate
// counterfactual transmissions. gamma is the Exp3 exploration rate.
func (s *Scenario) RunBanditLearning(rounds int, rayleigh bool, gamma float64) *RegretHistory {
	model := regret.NonFading
	if rayleigh {
		model = regret.Rayleigh
	}
	learners := make([]regret.Learner, s.m.N)
	for i := range learners {
		learners[i] = regret.NewExp3(gamma)
	}
	return regret.NewGameWithLearners(s.m, s.beta, model, learners, s.rngOrPanic().Split()).Run(rounds)
}

// WeightedCapacity runs link-weighted capacity maximization (the paper's
// second valid-utility family): weights are taken from the network's links,
// the scan is heaviest-first, and the returned set is feasibility-certified.
func (s *Scenario) WeightedCapacity() (set []int, value float64) {
	set, value, _ = capacity.GreedyWeighted(context.Background(), s.m, s.beta)
	return set, value
}

// SampleFadingSuccesses draws one realization under an arbitrary fading
// model (e.g. rayfade.NakagamiGains{M: 4}) and returns the successful links
// of the transmitting set. With rayfade.RayleighGains it matches
// SampleRayleighSuccesses in distribution.
func (s *Scenario) SampleFadingSuccesses(set []int, sampler fading.GainSampler) []int {
	active := sinr.SetToActive(s.m.N, set)
	vals := fading.SampleSINRsInto(s.m, active, sampler, s.rngOrPanic(), make([]float64, s.m.N), make([]int, 0, s.m.N))
	var ok []int
	for i, a := range active {
		if a && vals[i] >= s.beta {
			ok = append(ok, i)
		}
	}
	return ok
}

// NashEquilibrium runs round-robin best-response dynamics on the expected-
// reward game (the equilibria the paper's no-regret sequences generalize)
// and returns the result, including the equilibrium's exact expected
// Rayleigh success count.
func (s *Scenario) NashEquilibrium() regret.NashResult {
	return regret.BestResponseDynamics(s.m, s.beta, 0)
}

// ConflictGraphCapacity runs the binary-conflict-graph baseline (the model
// class the paper's introduction contrasts SINR scheduling against): a
// greedy maximal independent set of the pairwise-affectance conflict graph
// at threshold tau (use graphsched.DefaultThreshold for the standard
// setting). It returns the claimed set and the subset that actually
// satisfies the true SINR constraint — the gap is the accumulation effect
// binary models cannot see.
func (s *Scenario) ConflictGraphCapacity(tau float64) (claimed, valid []int) {
	g := graphsched.FromMatrix(s.m, s.beta, tau)
	claimed = g.IndependentSet() // in index order, as ActiveList lists it
	return claimed, sinr.AppendSuccesses(nil, s.m, sinr.ActiveList(sinr.SetToActive(s.m.N, claimed), nil), s.beta)
}

// ExpectedShannonRate returns the exact expected Shannon rate
// E[log(1+γ_i^R)] of link i under transmission probabilities q, computed by
// deterministic quadrature over the Theorem-1 closed form (no sampling).
// It reports fading.ErrInfiniteRate when the rate diverges (zero noise with
// positive silence probability).
func (s *Scenario) ExpectedShannonRate(q []float64, i int) (float64, error) {
	return fading.ExpectedShannonExact(s.m, q, i, 0)
}

// TotalShannonRate returns the exact expected network Shannon capacity
// Σ_i E[log(1+γ_i^R)] under transmission probabilities q.
func (s *Scenario) TotalShannonRate(q []float64) (float64, error) {
	return fading.TotalShannonExact(s.m, q, 0)
}

// UniformProbs returns the all-equal transmission probability vector for
// this scenario's links.
func (s *Scenario) UniformProbs(p float64) []float64 {
	return fading.UniformProbs(s.m.N, p)
}
