package rng

// vecKernel reports whether FillOpen's vector kernel runs on this CPU. It
// is fixed at start-up from what the CPU and the operating system report.
var vecKernel = detectAVX512()

// detectAVX512 reports whether the CPU implements AVX-512 F and DQ and the
// operating system saves the opmask and 512-bit register state (XCR0 bits 1,
// 2, 5, 6 and 7), which the kernel needs to use ZMM and K registers.
func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(avx512f|avx512dq) == avx512f|avx512dq
}

// minVecLen is the shortest dst the kernel takes. Below it the call and
// set-up cost more than they save: 8 draws took 25 ns by the kernel and
// 20 ns by the Go loop, 16 draws 30 ns and 36 ns.
const minVecLen = 16

// fillOpenVec draws a prefix of dst, in whole vectors of eight, with the
// AVX-512 kernel where the CPU has one, and returns its length; FillOpen's
// Go loop draws the rest from the state it leaves.
func (s *Source) fillOpenVec(dst []float64) int {
	if !vecKernel || len(dst) < minVecLen {
		return 0
	}
	return fillOpenAVX512(s, dst)
}

// fillOpenAVX512 draws dst[:len(dst)&^7] in chunks of at most 64: first
// it steps the state and stores each raw s1 word, then it scrambles and
// converts eight words per instruction. It writes the state back after a
// chunk only when no draw in it was zero; otherwise it returns the count
// drawn before that chunk, with *s at the chunk's start.
//
//go:noescape
func fillOpenAVX512(s *Source, dst []float64) int

// cpuid executes CPUID for leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register state the operating system saves.
func xgetbv() (eax, edx uint32)
