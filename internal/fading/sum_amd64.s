#include "textflag.h"

// func coarseSumAVX512(row []float64, idx []int, u []float64, skip int, noise float64) (sum, gains float64)
//
// Eight senders per step. K1 holds the lanes whose place k is below
// len(idx) and is not skip; every load and both accumulations are masked by
// it, so the tail and the own lane add nothing and read no memory past idx
// or u. ℓ̃(u) is computed as negLogCoarse computes it, with the same two
// roundings: float64(1023−e)·ln 2, then minus the table entry of the top ten
// mantissa bits.
TEXT ·coarseSumAVX512(SB), NOSPLIT, $0-104
	MOVQ row_base+0(FP), SI
	MOVQ idx_base+24(FP), DI
	MOVQ idx_len+32(FP), CX
	MOVQ u_base+48(FP), R8
	LEAQ ·coarseTable(SB), R10

	MOVQ         $1023, DX            // the exponent bias, and the cell mask
	VPBROADCASTQ DX, Z20
	MOVQ         $0x3fe62e42fefa39ef, DX // ln 2
	VPBROADCASTQ DX, Z21
	VPBROADCASTQ CX, Z22               // len(idx)
	MOVQ         skip+72(FP), DX
	VPBROADCASTQ DX, Z23
	MOVQ         $8, DX
	VPBROADCASTQ DX, Z25
	MOVQ         $0x0706050403020100, DX
	MOVQ         DX, X0
	VPMOVZXBQ    X0, Z24               // lane places k .. k+7, k = 0
	VPXORQ       Z1, Z1, Z1
	VPXORQ       Z6, Z6, Z6            // per-lane sums
	VPXORQ       Z7, Z7, Z7            // per-lane gains
	XORQ         AX, AX                // k

loop:
	CMPQ AX, CX
	JGE  reduce
	VPCMPQ $1, Z22, Z24, K1           // k+lane < len(idx)
	VPCMPQ $4, Z23, Z24, K1, K1       // and k+lane != skip
	VMOVDQU64.Z (DI)(AX*8), K1, Z0     // j = idx[k+lane]
	VMOVDQU64.Z (R8)(AX*8), K1, Z2     // the bits of u[k+lane]
	KMOVB      K1, K2
	VGATHERQPD (SI)(Z0*8), K2, Z1      // g = row[j]
	VPSRLQ     $52, Z2, Z3
	VPSUBQ     Z3, Z20, Z3
	VCVTQQ2PD  Z3, Z3
	VMULPD     Z21, Z3, Z3             // float64(1023−e)·ln 2
	VPSRLQ     $42, Z2, Z4
	VPANDQ     Z20, Z4, Z4             // the cell of the mantissa
	KXNORB     K3, K3, K3
	VGATHERQPD (R10)(Z4*8), K3, Z5
	VSUBPD     Z5, Z3, Z3              // ℓ̃(u)
	VMULPD     Z3, Z1, Z3
	VADDPD     Z3, Z6, K1, Z6          // sum += g·ℓ̃(u)
	VADDPD     Z1, Z7, K1, Z7          // gains += g
	VPADDQ     Z25, Z24, Z24
	ADDQ       $8, AX
	JMP        loop

reduce:
	// Lanes i and i+4, then i and i+2, then 0 and 1; then the noise.
	VEXTRACTF64X4 $1, Z6, Y8
	VEXTRACTF64X4 $1, Z7, Y9
	VADDPD        Y8, Y6, Y6
	VADDPD        Y9, Y7, Y7
	VEXTRACTF128  $1, Y6, X8
	VEXTRACTF128  $1, Y7, X9
	VADDPD        X8, X6, X6
	VADDPD        X9, X7, X7
	VPERMILPD     $1, X6, X8
	VPERMILPD     $1, X7, X9
	VADDSD        X8, X6, X6
	VADDSD        X9, X7, X7
	VADDSD        noise+80(FP), X6, X6
	VZEROUPPER
	MOVSD         X6, sum+88(FP)
	MOVSD         X7, gains+96(FP)
	RET
