package cpu

// AVX512 reports whether the CPU implements AVX-512 F and DQ and the
// operating system saves the opmask and 512-bit register state (XCR0 bits 1,
// 2, 5, 6 and 7), which a kernel needs to use ZMM and K registers.
var AVX512 = detectAVX512()

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

// cpuid executes CPUID for leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register state the operating system saves.
func xgetbv() (eax, edx uint32)
