//go:build !amd64

package rng

// There is no vector kernel off amd64: FillOpen's Go loop draws every
// value. The constants mirror fill_amd64.go's for the tests.
const (
	vecKernel = false
	minVecLen = 0
)

func (s *Source) fillOpenVec(dst []float64) int { return 0 }
