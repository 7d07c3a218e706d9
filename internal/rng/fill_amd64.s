#include "textflag.h"

// One xoshiro256** step on the state in R8..R11 (s0..s3): store the raw s1
// word at off(BX), then advance. R13 is scratch.
#define STEP(off) \
	MOVQ R9, off(BX); \
	MOVQ R9, R13;     \
	SHLQ $17, R13;    \
	XORQ R8, R10;     \
	XORQ R9, R11;     \
	XORQ R10, R9;     \
	XORQ R11, R8;     \
	XORQ R13, R10;    \
	ROLQ $45, R11

// func fillOpenAVX512(s *Source, dst []float64) int
TEXT ·fillOpenAVX512(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), DI
	MOVQ dst_base+8(FP), SI
	MOVQ dst_len+16(FP), CX
	ANDQ $-8, CX                  // whole vectors only; Go draws the tail
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ $0x3ca0000000000000, DX  // 2⁻⁵³
	VPBROADCASTQ DX, Z2
	XORQ AX, AX                   // draws committed

chunk:
	MOVQ CX, DX
	SUBQ AX, DX
	JZ   done
	CMPQ DX, $64
	JBE  pass1
	MOVQ $64, DX

pass1:
	// Step the state DX times, storing each raw s1 word in place.
	LEAQ (SI)(AX*8), BX
	MOVQ DX, R12

step8:
	STEP(0)
	STEP(8)
	STEP(16)
	STEP(24)
	STEP(32)
	STEP(40)
	STEP(48)
	STEP(56)
	ADDQ $64, BX
	SUBQ $8, R12
	JNZ  step8

	// Scramble, test and convert the chunk eight words at a time:
	// v = rotl(w·5, 7)·9 >> 11, then float64(v)·2⁻⁵³. K1 collects zeros.
	LEAQ  (SI)(AX*8), BX
	MOVQ  DX, R12
	KXORW K1, K1, K1

vec8:
	VMOVDQU64  (BX), Z0
	VPSLLQ     $2, Z0, Z1
	VPADDQ     Z1, Z0, Z0
	VPROLQ     $7, Z0, Z0
	VPSLLQ     $3, Z0, Z1
	VPADDQ     Z1, Z0, Z0
	VPSRLQ     $11, Z0, Z0
	VPTESTNMQ  Z0, Z0, K2
	KORW       K2, K1, K1
	VCVTUQQ2PD Z0, Z0
	VMULPD     Z2, Z0, Z0
	VMOVUPD    Z0, (BX)
	ADDQ       $64, BX
	SUBQ       $8, R12
	JNZ        vec8

	// A zero lane leaves *s at the chunk's start for the Go loop to redraw.
	KORTESTW K1, K1
	JNZ      done
	MOVQ     R8, 0(DI)
	MOVQ     R9, 8(DI)
	MOVQ     R10, 16(DI)
	MOVQ     R11, 24(DI)
	ADDQ     DX, AX
	JMP      chunk

done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET
