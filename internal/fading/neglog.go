package fading

import "math"

// coarseCells is the number of cells negLogCoarse splits the mantissa
// range [1, 2) into, one table entry each.
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
// slot is exactly 0. It is the log of the counter's coarse tier; a receiver
// that tier leaves undecided is summed again with math.Log by the canonical
// loop.
func negLogCoarse(u float64) float64 {
	b := math.Float64bits(u)
	return float64(1023-int(b>>52))*math.Ln2 - coarseTable[(b>>42)&(coarseCells-1)]
}
