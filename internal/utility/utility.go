// Package utility implements the valid utility functions of the paper's
// Section 2: per-link functions u_i mapping an achieved SINR to a value, so
// that the capacity objective becomes Σ_i u_i(γ_i).
//
// Definition 1 restricts attention to functions that are non-decreasing and
// concave from some point S̄(i,i)/(c·ν) on, with c > 1 — exactly the
// condition that keeps the comparison between the two models fair when
// noise is present. The three families the paper highlights are provided:
//
//   - Binary: u(γ) = 1 if γ ≥ β, else 0 (standard capacity maximization),
//   - Weighted: u(γ) = w if γ ≥ β, else 0 (link-weighted capacity),
//   - Shannon: u(γ) = log(1+γ) (total Shannon capacity).
//
// CheckValid verifies Definition 1 numerically for arbitrary functions, so
// user-supplied utilities can be validated before being fed to the
// transformation machinery, whose guarantees assume validity.
package utility

import (
	"fmt"
	"math"
)

// Func is a per-link utility: a non-negative function of the achieved SINR.
type Func interface {
	// Value returns u(sinr). Implementations must accept any sinr ≥ 0 as
	// well as +Inf (a link with no interference and no noise).
	Value(sinr float64) float64
	// Name identifies the utility in logs and experiment output.
	Name() string
}

// Binary is the threshold utility: 1 exactly when the SINR reaches Beta.
// This is the success indicator of standard capacity maximization.
type Binary struct{ Beta float64 }

// Value implements Func.
func (b Binary) Value(s float64) float64 {
	if s >= b.Beta {
		return 1
	}
	return 0
}

// Name implements Func.
func (b Binary) Name() string { return fmt.Sprintf("binary(β=%g)", b.Beta) }

// Weighted is the link-weighted threshold utility: W when the SINR reaches
// Beta, else 0.
type Weighted struct {
	Beta float64
	W    float64
}

// Value implements Func.
func (w Weighted) Value(s float64) float64 {
	if s >= w.Beta {
		return w.W
	}
	return 0
}

// Name implements Func.
func (w Weighted) Name() string { return fmt.Sprintf("weighted(β=%g,w=%g)", w.Beta, w.W) }

// Shannon is u(γ) = log(1+γ), the Shannon capacity of a unit-bandwidth
// channel. It is non-decreasing and concave on all of [0,∞), hence valid
// for every noise level.
type Shannon struct{}

// Value implements Func.
func (Shannon) Value(s float64) float64 {
	if math.IsInf(s, 1) {
		return math.Inf(1)
	}
	return math.Log1p(s)
}

// Name implements Func.
func (Shannon) Name() string { return "shannon" }

// CappedShannon is log(1+γ) truncated at the rate achieved at γ = Cap,
// modeling a maximum modulation rate. Still valid: non-decreasing and
// concave everywhere.
type CappedShannon struct{ Cap float64 }

// Value implements Func.
func (c CappedShannon) Value(s float64) float64 {
	if s > c.Cap {
		s = c.Cap
	}
	return math.Log1p(s)
}

// Name implements Func.
func (c CappedShannon) Name() string { return fmt.Sprintf("cappedShannon(γ≤%g)", c.Cap) }

// FuncOf adapts a plain function to a Func.
type FuncOf struct {
	F     func(float64) float64
	Label string
}

// Value implements Func.
func (f FuncOf) Value(s float64) float64 { return f.F(s) }

// Name implements Func.
func (f FuncOf) Name() string { return f.Label }

// Sum evaluates Σ_i u_i(sinrs[i]) for per-link utilities us. If us has
// length 1 the single utility applies to every link; otherwise it must have
// one entry per SINR.
func Sum(us []Func, sinrs []float64) float64 {
	if len(us) == 0 {
		panic("utility: Sum with no utility functions")
	}
	if len(us) != 1 && len(us) != len(sinrs) {
		panic(fmt.Sprintf("utility: %d utilities for %d links", len(us), len(sinrs)))
	}
	total := 0.0
	for i, s := range sinrs {
		u := us[0]
		if len(us) > 1 {
			u = us[i]
		}
		total += u.Value(s)
	}
	return total
}

// Uniform returns a slice aliasing one utility for all links, for use
// with Sum.
func Uniform(u Func) []Func { return []Func{u} }

// Report is the result of a CheckValid run.
type Report struct {
	Valid bool
	// Threshold is S̄(i,i)/(c·ν), the point from which the function must be
	// non-decreasing and concave. Zero if ν = 0 (every point qualifies).
	Threshold float64
	// Reason explains a failed check.
	Reason string
}

// CheckValid numerically verifies Definition 1 for utility u on a link with
// own expected strength sii under noise nu, with constant c > 1: u must be
// non-negative everywhere and non-decreasing and concave on
// [sii/(c·nu), ∞). The check samples the interval geometrically up to a
// large multiple of the threshold; it can produce false positives only for
// adversarial functions that misbehave strictly between sample points. It
// has no production caller; it stays because it states Definition 1, which
// Theorem 2 requires of every utility the paper transfers
// (TestCheckValidAcceptsPaperFamilies).
func CheckValid(u Func, sii, nu, c float64) Report {
	if c <= 1 {
		return Report{Reason: fmt.Sprintf("constant c = %g must exceed 1", c)}
	}
	if sii <= 0 {
		return Report{Reason: fmt.Sprintf("own signal strength %g must be positive", sii)}
	}
	var threshold float64
	if nu > 0 {
		threshold = sii / (c * nu)
	}
	// Sample geometrically from the threshold (or a small positive base)
	// across ten orders of magnitude.
	base := threshold
	if base == 0 {
		base = 1e-6
	}
	const steps = 400
	xs := make([]float64, steps)
	for k := range xs {
		xs[k] = base * math.Pow(10, 10*float64(k)/float64(steps-1))
	}
	vals := make([]float64, steps)
	for k, x := range xs {
		v := u.Value(x)
		if v < 0 || math.IsNaN(v) {
			return Report{Threshold: threshold, Reason: fmt.Sprintf("u(%g) = %g is not a non-negative value", x, v)}
		}
		vals[k] = v
	}
	const eps = 1e-9
	for k := 1; k < steps; k++ {
		if vals[k] < vals[k-1]-eps*(1+math.Abs(vals[k-1])) {
			return Report{Threshold: threshold,
				Reason: fmt.Sprintf("decreasing on [%g,%g]: u drops from %g to %g", xs[k-1], xs[k], vals[k-1], vals[k])}
		}
	}
	// Concavity via chord slopes: for x1 < x2 < x3, slope(x1,x2) ≥ slope(x2,x3).
	for k := 2; k < steps; k++ {
		s1 := (vals[k-1] - vals[k-2]) / (xs[k-1] - xs[k-2])
		s2 := (vals[k] - vals[k-1]) / (xs[k] - xs[k-1])
		if s2 > s1+eps*(1+math.Abs(s1)) {
			return Report{Threshold: threshold,
				Reason: fmt.Sprintf("convex kink near x = %g (slopes %g then %g)", xs[k-1], s1, s2)}
		}
	}
	return Report{Valid: true, Threshold: threshold}
}

// BinaryValidFor reports whether the binary utility at threshold beta is a
// valid utility function for a link with own strength sii under noise nu,
// i.e. whether there exists c > 1 with beta ≤ sii/(c·nu) (the paper's
// condition β ≤ min_i S̄(i,i)/(c·ν)). With ν = 0 every β qualifies. It has
// no production caller; it stays because it states that condition, which
// TestBinaryValidFor checks at the Figure-1 and Figure-2 settings.
func BinaryValidFor(beta, sii, nu float64) bool {
	if nu == 0 {
		return true
	}
	if beta <= 0 {
		return true
	}
	// Need c > 1 with c ≤ sii/(beta·nu); possible iff sii/(beta·nu) > 1.
	return sii/(beta*nu) > 1
}
