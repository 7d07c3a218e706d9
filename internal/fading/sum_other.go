//go:build !amd64

package fading

// sumKernel is false off amd64: coarseSum's Go loop adds every term.
var sumKernel = false

func coarseSumAVX512(row []float64, idx []int, u []float64, skip int, noise float64) (sum, gains float64) {
	panic("fading: no vector kernel off amd64")
}
