package fading

import "math"

// logCells is the number of cells negLog splits the mantissa range [1, 2)
// into, one table entry each.
const logCells = 128

// logErr bounds |negLog(u) − (−ln u)| for every normal u in (0, 1]. The
// largest error comes from the smallest uniforms, whose −ln u ≈ 36.7 is
// rounded three times: ln 2 itself, e·ln 2 and the final sum, each at most
// half an ulp of 36.7 (2⁻⁴⁸). The polynomial's truncation adds at most
// |r|⁶/6 ≤ 2⁻⁵⁰ and the table and r at most a few ulps of 1. The bound is
// more than twice their total; TestNegLogErrorBound pins it over every cell
// and binary exponent a uniform can have.
const logErr = 0x1p-45

// logTable holds, for each cell k, 1/c_k rounded and the exact-to-an-ulp
// logarithm of its inverse, at the cell centre c_k = 1 + (k+½)/logCells.
// Using ln(1/inv) rather than ln c_k keeps m·inv and the table consistent.
var logTable = func() (t [logCells]struct{ inv, log float64 }) {
	for k := range t {
		inv := 1 / (1 + (float64(k)+0.5)/logCells)
		t[k].inv, t[k].log = inv, -math.Log(inv)
	}
	return t
}()

// negLog returns −ln u within logErr for normal u in (0, 1]. It writes
// u = 2^e·m with m in [1, 2), looks up the cell of m's top seven mantissa
// bits, and evaluates ln m = ln c + ln(1 + r) with r = m/c − 1, |r| ≤ 2⁻⁸,
// by the degree-5 Taylor polynomial of ln(1 + r).
func negLog(u float64) float64 {
	b := math.Float64bits(u)
	e := float64(int(b>>52) - 1023)
	cell := &logTable[(b>>45)&(logCells-1)]
	r := math.Float64frombits(b&(1<<52-1)|1023<<52)*cell.inv - 1
	p := r * (1 + r*(-1.0/2+r*(1.0/3+r*(-1.0/4+r*(1.0/5)))))
	return -(e*math.Ln2 + cell.log + p)
}
