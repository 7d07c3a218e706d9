package regret

import (
	"fmt"

	"rayfade/internal/fading"
	"rayfade/internal/network"
)

// The no-regret sequences the paper analyzes generalize Nash equilibria of
// the capacity game (Section 6; the game-theoretic treatment is
// Andrews–Dinitz, the paper's reference [5]). This file provides the
// equilibrium side of that connection: exact best responses against the
// expected rewards h̄ under Rayleigh fading, round-robin best-response
// dynamics, and a pure-Nash check — so the learning dynamics can be
// compared against the equilibria they generalize.

// bestResponse returns the action maximizing link i's expected reward given
// the others' pure profile: Send iff h̄_i > 0, i.e. iff the conditional
// success probability exceeds 1/2 (reward +1 vs −1). Idle yields exactly 0,
// so ties break toward Idle (no strict gain from transmitting).
func bestResponse(m *network.Matrix, profile []bool, beta float64, i int) int {
	q := make([]float64, m.N)
	for j, s := range profile {
		if s {
			q[j] = 1
		}
	}
	q[i] = 1 // evaluate the Send branch
	if ExpectedReward(m, q, beta, i) > 0 {
		return Send
	}
	return Idle
}

// NashResult reports a best-response-dynamics run.
type NashResult struct {
	// Profile is the final pure strategy profile (true = Send).
	Profile []bool
	// Converged reports whether a pure Nash equilibrium was reached.
	Converged bool
	// Sweeps is the number of full round-robin passes performed.
	Sweeps int
	// Senders is the number of transmitting links in the final profile.
	Senders int
	// ExpectedSuccesses is Σ_i Q_i at the final profile (Theorem 1).
	ExpectedSuccesses float64
}

// BestResponseDynamics runs round-robin best-response dynamics from the
// all-idle profile: in each sweep every link in turn switches to its exact
// best response against the current profile. It stops at the first sweep
// with no switches (a pure Nash equilibrium of the expected-reward game) or
// after maxSweeps (converged = false). maxSweeps ≤ 0 selects 4·n.
//
// The game is not a potential game, so convergence is not guaranteed in
// theory; on the paper's workloads it settles within a few sweeps, giving
// the equilibrium benchmark the no-regret trajectories are compared to.
func BestResponseDynamics(m *network.Matrix, beta float64, maxSweeps int) NashResult {
	if beta <= 0 {
		panic(fmt.Sprintf("regret: threshold β = %g must be positive", beta))
	}
	if maxSweeps <= 0 {
		maxSweeps = 4 * m.N
		if maxSweeps < 16 {
			maxSweeps = 16
		}
	}
	profile := make([]bool, m.N)
	res := NashResult{Profile: profile}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		res.Sweeps = sweep + 1
		changed := false
		for i := 0; i < m.N; i++ {
			want := bestResponse(m, profile, beta, i) == Send
			if profile[i] != want {
				profile[i] = want
				changed = true
			}
		}
		if !changed {
			res.Converged = true
			break
		}
	}
	q := make([]float64, m.N)
	for i, s := range profile {
		if s {
			q[i] = 1
			res.Senders++
		}
	}
	res.ExpectedSuccesses = fading.ExpectedSuccessesExact(m, q, beta)
	return res
}

// IsPureNash reports whether the profile is a pure Nash equilibrium of the
// expected-reward game: no link strictly gains by switching its action.
// It has no production caller; it stays as the oracle that
// BestResponseDynamics ends in an equilibrium
// (TestBestResponseDynamicsConverges).
func IsPureNash(m *network.Matrix, profile []bool, beta float64) bool {
	if len(profile) != m.N {
		panic(fmt.Sprintf("regret: profile has %d entries for %d links", len(profile), m.N))
	}
	for i := range profile {
		if (bestResponse(m, profile, beta, i) == Send) != profile[i] {
			return false
		}
	}
	return true
}
