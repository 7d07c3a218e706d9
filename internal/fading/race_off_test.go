//go:build !race

package fading

// raceEnabled reports a -race build, whose instrumented memory accesses
// distort timing comparisons.
const raceEnabled = false
