package fading

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"rayfade/internal/rng"
)

// forSumPaths runs f once per straight-sum path this CPU has, as subtests:
// the Go loop always, and the AVX-512 kernel where it runs.
func forSumPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	paths := []bool{false}
	if sumKernel {
		paths = append(paths, true)
	}
	saved := sumKernel
	defer func() { sumKernel = saved }()
	for _, on := range paths {
		sumKernel = on
		t.Run(sumPathName(on), f)
	}
}

func sumPathName(kernel bool) string {
	if kernel {
		return "kernel"
	}
	return "go"
}

// goCoarseSum is coarseSum by the Go loop, whatever the CPU.
func goCoarseSum(row []float64, idx []int, u []float64, skip int, noise float64) (float64, float64) {
	saved := sumKernel
	sumKernel = false
	defer func() { sumKernel = saved }()
	return coarseSum(row, idx, u, skip, noise)
}

// TestCoarseSumOneSender pins that one sender over no noise sums to exactly
// g·negLogCoarse(u) on every path, over every table cell and binary exponent
// TestNegLogCoarseErrorBound walks: the kernel's ℓ̃ is negLogCoarse's own
// value, bit for bit, and a lone term passes the lane reduction unchanged.
func TestCoarseSumOneSender(t *testing.T) {
	forSumPaths(t, func(t *testing.T) {
		gains := rng.New(41)
		row := []float64{0}
		idx := []int{0}
		u := []float64{0}
		for e := -53; e <= -1; e++ {
			for k := 0; k < coarseCells; k++ {
				lo := 1 + float64(k)/coarseCells
				hi := math.Nextafter(1+float64(k+1)/coarseCells, 0)
				for _, mant := range []float64{lo, math.Nextafter(lo, 2), lo + 0.5/coarseCells, hi} {
					row[0], u[0] = gains.Float64Open()*1e-3, math.Ldexp(mant, e)
					want := row[0] * negLogCoarse(u[0])
					sum, g := coarseSum(row, idx, u, -1, 0)
					if math.Float64bits(sum) != math.Float64bits(want) || g != row[0] {
						t.Fatalf("g = %v, u = %v (2^%d × %v): sum %v and gains %v, want %v and %v", row[0], u[0], e, mant, sum, g, want, row[0])
					}
				}
			}
		}
	})
}

// TestCoarseSumKernelMatchesLoop compares the AVX-512 kernel with the Go
// loop on random rows at every length from 0 to 200, skipping no place, each
// place in turn and the place past the end. Some gains are zero over NaN
// slots of u, as a row that is not all positive leaves them, and the slots
// past the end of idx and u hold a strong sender and a typical uniform, so a
// lane read past the tail changes the sum. The two sums must agree within
// their error bounds added: the Go loop is within (a+1)u of the exact sum
// of its terms and the kernel within (⌈a/8⌉+5)u, with u = 2⁻⁵³.
// One case per length plants an infinite gain, which both must sum to a
// value that is not finite.
func TestCoarseSumKernelMatchesLoop(t *testing.T) {
	if !sumKernel {
		t.Skip("no AVX-512 kernel on this CPU")
	}
	const n = 256
	src := rng.New(43)
	row := make([]float64, n)
	for j := range row {
		row[j] = src.Float64Open() * math.Ldexp(1, -int(src.Uint64()%40))
	}
	row[n-1] = 1e300 // the sender past every tail
	for a := 0; a <= 200; a++ {
		idxBuf, uBuf := make([]int, a+8), make([]float64, a+8)
		for k := range idxBuf {
			idxBuf[k], uBuf[k] = n-1, 0.5
		}
		idx, u := idxBuf[:a], uBuf[:a]
		for k := range idx {
			idx[k] = int(src.Uint64() % (n - 1))
			u[k] = src.Float64Open()
		}
		zeros, uzBuf := slices.Clone(row), slices.Clone(uBuf)
		uz := uzBuf[:a]
		for k := range idx {
			if src.Bernoulli(0.2) {
				zeros[idx[k]] = 0
			}
		}
		for k, j := range idx {
			if zeros[j] == 0 {
				uz[k] = math.NaN()
			}
		}
		for _, skip := range append([]int{-1, a}, seq(a)...) {
			for _, c := range []struct {
				row, u []float64
			}{{row, u}, {zeros, uz}} {
				noise := src.Float64Open() * 1e-6
				gotSum, gotGains := coarseSum(c.row, idx, c.u, skip, noise)
				wantSum, wantGains := goCoarseSum(c.row, idx, c.u, skip, noise)
				tol := float64(a+1+(a+7)/8+5) * 0x1p-53
				if math.Abs(gotSum-wantSum) > tol*wantSum || math.Abs(gotGains-wantGains) > tol*wantGains {
					t.Fatalf("a=%d skip=%d: kernel sum %v gains %v, Go loop %v and %v", a, skip, gotSum, gotGains, wantSum, wantGains)
				}
			}
		}
		if a > 0 {
			inf := slices.Clone(row)
			inf[idx[a-1]] = math.Inf(1)
			gotSum, gotGains := coarseSum(inf, idx, u, -1, 0)
			wantSum, wantGains := goCoarseSum(inf, idx, u, -1, 0)
			for _, v := range []float64{gotSum, gotGains, wantSum, wantGains} {
				if !math.IsInf(v, 0) && !math.IsNaN(v) {
					t.Fatalf("a=%d: an infinite gain gave kernel %v %v, Go loop %v %v; want none finite", a, gotSum, gotGains, wantSum, wantGains)
				}
			}
		}
	}
}

// seq returns 0, 1, …, n−1.
func seq(n int) []int {
	s := make([]int, n)
	for k := range s {
		s[k] = k
	}
	return s
}

// BenchmarkStraightSum times the coarse tier's straight sum at 12, 49 and
// 99 terms, a receiver's senders at densities 0.125, 0.5 and 1 of the
// paper's 100 links, by the kernel where the CPU has it and by the Go loop.
func BenchmarkStraightSum(b *testing.B) {
	m := randomMatrix(b, 1, 100)
	row := m.Incoming(0)
	u := make([]float64, 100)
	rng.New(2).FillOpen(u)
	saved := sumKernel
	defer func() { sumKernel = saved }()
	for _, terms := range []int{12, 49, 99} {
		idx := seq(terms + 1)
		for _, kernel := range []bool{true, false} {
			if kernel && !saved {
				continue
			}
			b.Run(fmt.Sprintf("terms=%d/%s", terms, sumPathName(kernel)), func(b *testing.B) {
				sumKernel = kernel
				var sink float64
				for i := 0; i < b.N; i++ {
					s, g := coarseSum(row, idx, u, 0, m.Noise)
					sink += s + g
				}
				if sink == 0 {
					b.Fatal("empty sums")
				}
			})
		}
	}
}
