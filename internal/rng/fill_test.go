package rng

import (
	"math/bits"
	"strconv"
	"testing"
)

// stepBack returns the xoshiro256** state one step before s: Uint64 on the
// result returns s's state. A step maps (s0, s1, s2, s3) to
// S0 = s0^s3^s1, S1 = s1^s2^s0, S2 = s2^s0^(s1<<17) and
// S3 = rotl(s3^s1, 45), so b = s3^s1 comes back from S3, then s0 from S0,
// s1 from S1^S2 = s1^(s1<<17), and s2 and s3 from S2 and b.
func stepBack(s Source) Source {
	b := bits.RotateLeft64(s.s3, -45)
	s0 := s.s0 ^ b
	y := s.s1 ^ s.s2
	s1 := y ^ y<<17 ^ y<<34 ^ y<<51 // inverts x ^ x<<17
	return Source{s0: s0, s1: s1, s2: s.s2 ^ s0 ^ s1<<17, s3: b ^ s1}
}

// zeroAt returns a state whose draw at offset k is exactly 0: the state
// with s1 = 0, stepped back k times.
func zeroAt(k int) *Source {
	s := Source{s0: 1, s1: 0, s2: 2, s3: 3}
	for ; k > 0; k-- {
		s = stepBack(s)
	}
	return &s
}

// fillKernelThenGo is FillOpen's amd64 route, taken directly: the vector
// kernel draws what it can and the Go loop the rest. It returns the count
// the kernel drew, which is 0 where the CPU has no kernel.
func fillKernelThenGo(s *Source, dst []float64) int {
	n := s.fillOpenVec(dst)
	s.fillOpenGo(dst[n:])
	return n
}

// checkFillPaths draws n values from start by the kernel route and by the
// Go loop, and requires both to equal n Float64Open calls, values and the
// four Uint64s that follow. It returns the kernel's count.
func checkFillPaths(t *testing.T, start *Source, n int, what string) int {
	t.Helper()
	one, vec, scalar := start.Clone(), start.Clone(), start.Clone()
	gotVec, gotGo := make([]float64, n), make([]float64, n)
	drawn := fillKernelThenGo(vec, gotVec)
	scalar.fillOpenGo(gotGo)
	for k := 0; k < n; k++ {
		want := one.Float64Open()
		if gotVec[k] != want || gotGo[k] != want {
			t.Fatalf("%s n=%d draw %d: kernel route %v, Go loop %v, Float64Open %v", what, n, k, gotVec[k], gotGo[k], want)
		}
	}
	for k := 0; k < 4; k++ {
		want := one.Uint64()
		if a, b := vec.Uint64(), scalar.Uint64(); a != want || b != want {
			t.Fatalf("%s n=%d: Uint64 %d after the batch is %d by the kernel route, %d by the Go loop, %d after single draws", what, n, k, a, b, want)
		}
	}
	return drawn
}

func TestStepBackInvertsUint64(t *testing.T) {
	s := New(11)
	for i := 0; i < 1000; i++ {
		before := *s
		s.Uint64()
		if back := stepBack(*s); back != before {
			t.Fatalf("step %d: stepBack gave %+v, want %+v", i, back, before)
		}
	}
}

// TestFillOpenZeroAtEveryOffset plants the one draw the open interval skips
// at every offset across three of the kernel's 64-draw chunks and a tail.
// Where the kernel runs, it must stop at the start of the chunk holding the
// zero and leave that chunk to the Go loop.
func TestFillOpenZeroAtEveryOffset(t *testing.T) {
	const n = 3*64 + 13
	if !vecKernel {
		t.Log("no vector kernel on this CPU; checking the Go loop alone")
	}
	for k := 0; k < n; k++ {
		start := zeroAt(k)
		probe := start.Clone()
		for i := 0; i < k; i++ {
			probe.Uint64()
		}
		if probe.Float64() != 0 {
			t.Fatalf("offset %d: the planted state does not draw 0 there", k)
		}
		drawn := checkFillPaths(t, start, n, "zero at "+strconv.Itoa(k))
		want := 0 // no kernel
		switch {
		case vecKernel && k < n&^7:
			want = k / 64 * 64
		case vecKernel:
			want = n &^ 7 // the zero falls in the Go loop's tail
		}
		if drawn != want {
			t.Fatalf("zero at %d: the kernel drew %d, want %d", k, drawn, want)
		}
	}
}

// TestFillOpenPathsAgreeOnRandomStates compares the kernel route and the Go
// loop with Float64Open at every length through three chunks and a tail.
func TestFillOpenPathsAgreeOnRandomStates(t *testing.T) {
	seeds := New(5)
	for n := 0; n <= 200; n++ {
		start := seeds.Split()
		drawn := checkFillPaths(t, start, n, "random state")
		want := 0 // no kernel, or too short for it
		if vecKernel && n >= minVecLen {
			want = n &^ 7
		}
		if drawn != want {
			t.Fatalf("n=%d: the kernel drew %d, want %d", n, drawn, want)
		}
	}
}
