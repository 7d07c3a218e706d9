// Package capacity implements single-slot capacity maximization in the
// non-fading SINR model: selecting a feasible set of links that maximizes
// the number (or weight, or utility) of simultaneous successes.
//
// These algorithms are the substrate the paper's reduction transfers: an
// approximation algorithm here becomes, unchanged, an O(log* n)-factor-worse
// approximation under Rayleigh fading (Lemma 2 + Theorem 2). The package
// provides faithful variants of the cited algorithm families:
//
//   - GreedyAffectanceCtx in LengthOrder — the length-ordered affectance
//     greedy for uniform powers, in the style of Goussevskaia–Wattenhofer–
//     Halldórsson–Welzl [8] and Halldórsson–Wattenhofer [25]; the same scan
//     serves monotone (e.g. square-root) power assignments, the regime of
//     Halldórsson–Mitra [7], where the distinction matters for the
//     guarantee, not the code path;
//   - PowerControlGreedyCtx — greedy selection with exact power-control
//     feasibility via the Foschini–Miljanic fixed point, the natural
//     executable counterpart of Kesselheim's power-control algorithm [6]
//     (see DESIGN.md for the substitution note);
//   - FlexibleRates — the rate-class decomposition of Kesselheim [22] for
//     non-binary (flexible data rate) utilities.
//
// All selection routines return sets that are certified feasible in the
// non-fading model before they are handed to the fading transfer.
package capacity

import (
	"context"
	"fmt"
	"math"
	"sort"

	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/sinr"
	"rayfade/internal/utility"
)

// ctxCheckStride is how many scan iterations the greedy scans run between
// context polls: frequent enough that cancellation lands within microseconds
// on realistic instances, rare enough that the atomic load in ctx.Err never
// shows up in profiles.
const ctxCheckStride = 64

// DefaultTau is the affectance budget the greedy algorithms allocate per
// link. The SINR constraint itself allows total (uncapped) affectance 1;
// scanning with a budget of 1/2 in length order is what yields the
// constant-factor guarantees in the cited literature, because it leaves
// room for the accepted links' mutual interference. DESIGN.md calls this
// constant out for ablation (BenchmarkAblationGreedyTau).
const DefaultTau = 0.5

// GreedyAffectance scans links in the given order and accepts a link when,
// after acceptance, (a) the candidate's total uncapped affectance from the
// accepted set stays within tau, and (b) no previously accepted link's
// total affectance (including the candidate's contribution) exceeds tau.
// For tau ≤ 1 the returned set is feasible at threshold beta by the exact
// affectance characterization of the SINR constraint.
//
// Links that cannot reach β even alone (sinr.Alone) are never accepted.
// The scan is a sinr.Budget at tau.
//
// GreedyAffectance is the context-free form of GreedyAffectanceCtx, kept
// because the benchmark suite calls it by name; code with a ctx calls
// GreedyAffectanceCtx.
func GreedyAffectance(m *network.Matrix, beta, tau float64, order []int) []int {
	set, _ := GreedyAffectanceCtx(context.Background(), m, beta, tau, order)
	return set
}

// GreedyAffectanceCtx is GreedyAffectance with cooperative cancellation: the
// scan polls ctx every ctxCheckStride candidates and returns the selection
// so far together with ctx.Err() when cancelled. A nil error means the scan
// ran to completion.
func GreedyAffectanceCtx(ctx context.Context, m *network.Matrix, beta, tau float64, order []int) ([]int, error) {
	if tau <= 0 || tau > 1 {
		panic(fmt.Sprintf("capacity: affectance budget τ = %g outside (0,1]", tau))
	}
	if beta <= 0 {
		panic(fmt.Sprintf("capacity: threshold β = %g must be positive", beta))
	}
	// Detached: greedy scans run concurrently under experiment fan-outs and
	// per-request in the daemon, so each gets its own trace track.
	ctx, sp := obs.StartDetached(ctx, "capacity.greedy_affectance")
	sp.SetAttr("candidates", len(order))
	set := sinr.NewBudget(m, beta, tau)
	defer func() {
		sp.SetAttr("selected", len(set.Members()))
		sp.End()
	}()
	for scanned, cand := range order {
		if scanned%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return set.Members(), err
			}
		}
		set.TryAdd(cand)
	}
	return set.Members(), nil
}

// LengthOrder returns link indices sorted by non-decreasing link length,
// the scan order of the length-greedy algorithms. Ties break by index for
// determinism.
func LengthOrder(net *network.Network) []int {
	lengths := net.Lengths()
	order := make([]int, len(lengths))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return lengths[order[a]] < lengths[order[b]] })
	return order
}

// FeasiblePowers decides power-control feasibility of a link set and, when
// feasible, returns positive powers under which every link of the set
// reaches SINR at least beta.
//
// For path-loss-only gains L(j,i) (unit transmit power), the SINR
// constraints with powers p read p ≥ C·p + b, where
// C[b][a] = β·L(a,b)/L(b,b) (zero diagonal) and b_i = β·ν/L(i,i). By the
// classical power-control theory (Zander; Foschini–Miljanic), a positive
// solution exists iff the Perron spectral radius ρ(C) is below 1 (at most 1
// when ν = 0). The function estimates ρ(C) by power iteration and then
// either returns the Perron direction (ν = 0, every link gets SINR β/ρ ≥ β)
// or iterates the affine fixed point to the exact-SINR-β power vector
// (ν > 0).
//
// maxIter ≤ 0 and tol ≤ 0 select defaults (500 iterations, 1e-10).
func FeasiblePowers(net *network.Network, set []int, beta float64, maxIter int, tol float64) ([]float64, bool) {
	if len(set) == 0 {
		return nil, true
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	if tol <= 0 {
		tol = 1e-10
	}
	k := len(set)
	// Normalized interference matrix C and noise offset b.
	C := make([][]float64, k)
	offset := make([]float64, k)
	for b, i := range set {
		C[b] = make([]float64, k)
		dii := net.Metric.Dist(net.Links[i].Sender, net.Links[i].Receiver)
		lii := math.Pow(dii, -net.Alpha)
		for a, j := range set {
			if a == b {
				continue
			}
			d := net.Metric.Dist(net.Links[j].Sender, net.Links[i].Receiver)
			C[b][a] = beta * math.Pow(d, -net.Alpha) / lii
		}
		offset[b] = beta * net.Noise / lii
	}
	if k == 1 {
		if net.Noise == 0 {
			return []float64{1}, true
		}
		return []float64{offset[0]}, true
	}
	// Power iteration for the Perron radius and direction.
	v := make([]float64, k)
	next := make([]float64, k)
	for a := range v {
		v[a] = 1
	}
	rho := 0.0
	for iter := 0; iter < maxIter; iter++ {
		norm := 0.0
		for b := range next {
			s := 0.0
			for a := range v {
				s += C[b][a] * v[a]
			}
			next[b] = s
			if s > norm {
				norm = s
			}
		}
		if norm == 0 { // no interference at all
			rho = 0
			break
		}
		diff := 0.0
		for b := range next {
			next[b] /= norm
			diff += math.Abs(next[b] - v[b])
		}
		copy(v, next)
		rho = norm
		if diff < tol {
			break
		}
	}
	if net.Noise == 0 {
		if rho > 1+1e-9 {
			return nil, false
		}
		// Perron direction: every link gets SINR β/ρ ≥ β (ρ ≤ 1).
		return append([]float64(nil), v...), true
	}
	if rho >= 1-1e-12 {
		return nil, false
	}
	// Affine fixed point p = C·p + offset, contraction since ρ(C) < 1.
	p := append([]float64(nil), offset...)
	for iter := 0; iter < maxIter; iter++ {
		diff := 0.0
		for b := range next {
			s := offset[b]
			for a := range p {
				s += C[b][a] * p[a]
			}
			next[b] = s
			diff += math.Abs(s - p[b])
		}
		copy(p, next)
		if diff < tol*(1+vecMax(p)) {
			return append([]float64(nil), p...), true
		}
	}
	return nil, false
}

func vecMax(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// PowerControlResult is a power-control capacity solution: the selected set
// and the powers certifying its feasibility (aligned with Set).
type PowerControlResult struct {
	Set    []int
	Powers []float64
}

// PowerControlGreedyCtx selects links in non-decreasing length order,
// keeping a link whenever the grown set remains power-control feasible at
// threshold beta (exact Foschini–Miljanic check). It is the executable
// counterpart of the constant-factor power-control algorithm of
// Kesselheim [6]: the same increasing-length scan, with the analytic
// acceptance rule replaced by the exact feasibility oracle (a strictly more
// permissive test, so the output is never smaller on instances where the
// rule would fire). The returned powers give every selected link SINR
// exactly beta.
//
// The scan polls ctx before every feasibility check (each check is a full
// power-iteration fixed point, the expensive unit of work here) and returns
// the solution so far together with ctx.Err() when cancelled.
func PowerControlGreedyCtx(ctx context.Context, net *network.Network, beta float64) (PowerControlResult, error) {
	order := LengthOrder(net)
	ctx, sp := obs.StartDetached(ctx, "capacity.power_control_greedy")
	sp.SetAttr("candidates", len(order))
	var set []int
	var powers []float64
	defer func() {
		sp.SetAttr("selected", len(set))
		sp.End()
	}()
	for _, cand := range order {
		if err := ctx.Err(); err != nil {
			return PowerControlResult{Set: set, Powers: powers}, err
		}
		trial := append(append([]int(nil), set...), cand)
		if p, ok := FeasiblePowers(net, trial, beta, 0, 0); ok {
			set = trial
			powers = p
		}
	}
	return PowerControlResult{Set: set, Powers: powers}, nil
}

// ApplyPowers writes a power-control solution's powers back onto a copy of
// the network, so the solution can be evaluated (or transferred to the
// Rayleigh model) like any fixed-power solution. Unselected links keep
// their original powers but are not part of the solution set.
func (r PowerControlResult) ApplyPowers(net *network.Network) *network.Network {
	out := net.Clone()
	for k, i := range r.Set {
		out.Links[i].Power = r.Powers[k]
	}
	return out
}

// WeightOrder returns link indices sorted by non-increasing weight (from
// the matrix's Weights vector), ties broken by index — the scan order for
// link-weighted capacity maximization.
func WeightOrder(m *network.Matrix) []int {
	order := make([]int, m.N)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return m.Weights[order[a]] > m.Weights[order[b]] })
	return order
}

// GreedyWeighted runs the affectance greedy in non-increasing weight order:
// the executable form of link-weighted capacity maximization (the paper's
// second valid-utility example, u_i(x) = w_i for x ≥ β). The returned set
// is feasibility-certified; its value is the sum of the selected weights.
// On cancellation it returns the set selected so far, its value and
// ctx.Err().
func GreedyWeighted(ctx context.Context, m *network.Matrix, beta float64) (set []int, value float64, err error) {
	set, err = GreedyAffectanceCtx(ctx, m, beta, DefaultTau, WeightOrder(m))
	for _, i := range set {
		value += m.Weights[i]
	}
	return set, value, err
}

// RateClass is one threshold class of the flexible-data-rate decomposition.
type RateClass struct {
	Beta  float64
	Set   []int
	Value float64
}

// FlexibleRates implements the rate-class decomposition of Kesselheim [22]
// for capacity maximization with non-binary utilities: candidate SINR
// thresholds are the powers of two spanning [betaMin, betaMax]; for each
// threshold β_t the binary capacity problem is solved by the affectance
// greedy, the resulting set is valued at Σ_i u_i(β_t) (every selected link
// is guaranteed SINR ≥ β_t), and the best class wins. This yields an
// O(log n)-style guarantee relative to the fractional optimum for valid
// utility functions, and — through the paper's reduction — the same up to
// O(log* n) under Rayleigh fading. A cancelled ctx returns ctx.Err() and no
// classes.
func FlexibleRates(ctx context.Context, net *network.Network, us []utility.Func, betaMin, betaMax float64) (best RateClass, classes []RateClass, err error) {
	if betaMin <= 0 || betaMax < betaMin {
		panic(fmt.Sprintf("capacity: invalid threshold range [%g,%g]", betaMin, betaMax))
	}
	m := net.Gains()
	order := LengthOrder(net)
	for beta := betaMin; beta <= betaMax*(1+1e-12); beta *= 2 {
		set, err := GreedyAffectanceCtx(ctx, m, beta, DefaultTau, order)
		if err != nil {
			return RateClass{}, nil, err
		}
		value := 0.0
		for _, i := range set {
			u := us[0]
			if len(us) > 1 {
				u = us[i]
			}
			value += u.Value(beta)
		}
		classes = append(classes, RateClass{Beta: beta, Set: set, Value: value})
	}
	best = classes[0]
	for _, c := range classes[1:] {
		if c.Value > best.Value {
			best = c
		}
	}
	return best, classes, nil
}
