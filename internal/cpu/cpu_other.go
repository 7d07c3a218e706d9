//go:build !amd64

package cpu

// AVX512 is false off amd64: there is no AVX-512 to use.
var AVX512 = false
