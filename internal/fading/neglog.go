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
// by the degree-5 Taylor polynomial of ln(1 + r). It is the log of the
// counter's precise tier, which only receivers the coarse tier leaves
// undecided reach.
func negLog(u float64) float64 {
	b := math.Float64bits(u)
	e := float64(int(b>>52) - 1023)
	cell := &logTable[(b>>45)&(logCells-1)]
	r := math.Float64frombits(b&(1<<52-1)|1023<<52)*cell.inv - 1
	p := r * (1 + r*(-1.0/2+r*(1.0/3+r*(-1.0/4+r*(1.0/5)))))
	return -(e*math.Ln2 + cell.log + p)
}

// coarseCells is the number of cells negLogCoarse splits [1, 2) into.
const coarseCells = 1024

// coarseErr bounds |negLogCoarse(u) − (−ln u)| for every normal u in
// (0, 1]. A mantissa m lies within half a cell, 2⁻¹¹, of its cell centre
// c ≥ 1, so |ln m − ln c| ≤ 2⁻¹¹; the rounding of the table, e·ln 2 and the
// sum adds at most 2⁻⁴⁷. The bound is about twice their total;
// TestNegLogCoarseErrorBound pins it over every cell and binary exponent a
// uniform can have.
const coarseErr = 0x1p-10

// coarseTable holds ln c_k at each cell centre c_k = 1 + (k+½)/coarseCells.
var coarseTable = func() (t [coarseCells]float64) {
	for k := range t {
		t[k] = math.Log(1 + (float64(k)+0.5)/coarseCells)
	}
	return t
}()

// negLogCoarse returns −ln u within coarseErr for normal u in (0, 1]: with
// u = 2^e·m and m in [1, 2), it is −(e·ln 2 + ln c) for the centre c of
// the cell of m's top ten mantissa bits — one lookup, no polynomial. It is
// finite for every bit pattern, so a zero gain times negLogCoarse of any
// slot is exactly 0.
func negLogCoarse(u float64) float64 {
	b := math.Float64bits(u)
	return float64(1023-int(b>>52))*math.Ln2 - coarseTable[(b>>42)&(coarseCells-1)]
}
