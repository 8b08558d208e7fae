// AVX2 kernels for training and scoring. None uses a fused
// multiply-add: every product is rounded by VMULPD/VMULSD before
// VADDPD/VSUBPD consumes it, in the operand order of the Go kernels
// in block.go, so results are bit-identical to them.

#include "textflag.h"

// laneIndex holds the int64s 0..15: comparing the count of inputs
// left against it gives the masks of gradStepAVX2's last, partial
// chunk, whose lane k of group g is live while 4g+k < count.
DATA laneIndex<>+0(SB)/8, $0
DATA laneIndex<>+8(SB)/8, $1
DATA laneIndex<>+16(SB)/8, $2
DATA laneIndex<>+24(SB)/8, $3
DATA laneIndex<>+32(SB)/8, $4
DATA laneIndex<>+40(SB)/8, $5
DATA laneIndex<>+48(SB)/8, $6
DATA laneIndex<>+56(SB)/8, $7
DATA laneIndex<>+64(SB)/8, $8
DATA laneIndex<>+72(SB)/8, $9
DATA laneIndex<>+80(SB)/8, $10
DATA laneIndex<>+88(SB)/8, $11
DATA laneIndex<>+96(SB)/8, $12
DATA laneIndex<>+104(SB)/8, $13
DATA laneIndex<>+112(SB)/8, $14
DATA laneIndex<>+120(SB)/8, $15
GLOBL laneIndex<>(SB), RODATA|NOPTR, $128

// func layerBlock4AVX2(w, b, xt, yt []float64, in int)
//
// The four block rows are the four lanes of a YMM register, so each
// lane runs one row's dot product in j order. Four outputs share each
// packed input column per pass; the last out%4 go one at a time.
TEXT ·layerBlock4AVX2(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), SI
	MOVQ b_base+24(FP), BX
	MOVQ b_len+32(FP), R8   // outputs left
	MOVQ xt_base+48(FP), DX
	MOVQ yt_base+72(FP), DI
	MOVQ in+96(FP), CX
	MOVQ CX, R11
	SHLQ $3, R11            // weight-row stride in bytes

quad:
	CMPQ R8, $4
	JLT  single
	LEAQ (SI)(R11*1), R9    // weight row o+1
	LEAQ (SI)(R11*2), R10   // weight row o+2
	LEAQ (R9)(R11*2), R12   // weight row o+3
	VBROADCASTSD (BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	MOVQ DX, R13            // packed input column j
	XORQ AX, AX             // j
	JMP  quadtest

quadloop:
	VMOVUPD      (R13), Y4
	VBROADCASTSD (SI)(AX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R9)(AX*8), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (R10)(AX*8), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (R12)(AX*8), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, R13
	INCQ         AX

quadtest:
	CMPQ    AX, CX
	JLT     quadloop
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $32, BX
	LEAQ    (R12)(R11*1), SI // weight row o+4
	SUBQ    $4, R8
	JMP     quad

single:
	TESTQ        R8, R8
	JZ           done
	VBROADCASTSD (BX), Y0
	MOVQ         DX, R13
	XORQ         AX, AX
	JMP          singletest

singleloop:
	VBROADCASTSD (SI)(AX*8), Y5
	VMULPD       (R13), Y5, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $32, R13
	INCQ         AX

singletest:
	CMPQ    AX, CX
	JLT     singleloop
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $8, BX
	ADDQ    R11, SI
	DECQ    R8
	JMP     single

done:
	VZEROUPPER
	RET

// func gradStepAVX2(w, b, x, d []float64, in, rows int, lr float64)
//
// The lanes run over inputs: for one output o, a chunk of 16 inputs
// sits in four accumulators, and the row loop adds each row's
// d[r][o]·x[r][i] to them in row order from +0 before the chunk's
// weights take their step. The last in%16 inputs run one masked chunk.
// Every chunk also sums the output's bias gradient in X14; the last
// chunk's sum, the same as every other's, steps the bias.
TEXT ·gradStepAVX2(SB), NOSPLIT, $0-120
	MOVQ         w_base+0(FP), SI
	MOVQ         b_base+24(FP), BX
	MOVQ         b_len+32(FP), R8  // outputs left
	MOVQ         d_base+72(FP), DI // delta of output o, row 0
	MOVQ         in+96(FP), R11
	SHLQ         $3, R11           // x row stride in bytes
	MOVQ         rows+104(FP), R9
	VBROADCASTSD lr+112(FP), Y15
	MOVQ         R8, R10
	SHLQ         $5, R10
	SUBQ         $32, R10          // from a block's fourth delta to the next block's first

output:
	TESTQ R8, R8
	JZ    gdone
	MOVQ  in+96(FP), CX     // inputs left in weight row o
	MOVQ  x_base+48(FP), DX // x column of the chunk, row 0

chunk:
	CMPQ   CX, $16
	JLT    tail
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD X14, X14, X14
	MOVQ   DX, R12
	MOVQ   DI, R13
	XORQ   AX, AX           // r
	JMP    fulltest

fullloop:
	VBROADCASTSD (R13), Y4
	VMULPD       (R12), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R12), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R12), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R12), Y4, Y5
	VADDPD       Y5, Y3, Y3
	VADDSD       X4, X14, X14
	ADDQ         R11, R12
	ADDQ         $8, R13
	INCQ         AX
	TESTQ        $3, AX
	JNZ          fulltest
	ADDQ         R10, R13

fulltest:
	CMPQ    AX, R9
	JLT     fullloop
	VMULPD  Y0, Y15, Y0
	VMOVUPD (SI), Y4
	VSUBPD  Y0, Y4, Y4
	VMOVUPD Y4, (SI)
	VMULPD  Y1, Y15, Y1
	VMOVUPD 32(SI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, 32(SI)
	VMULPD  Y2, Y15, Y2
	VMOVUPD 64(SI), Y6
	VSUBPD  Y2, Y6, Y6
	VMOVUPD Y6, 64(SI)
	VMULPD  Y3, Y15, Y3
	VMOVUPD 96(SI), Y7
	VSUBPD  Y3, Y7, Y7
	VMOVUPD Y7, 96(SI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	SUBQ    $16, CX
	JNZ     chunk
	JMP     bias

tail:
	// 0 <= CX < 16 inputs left: Y8..Y11 mask the four groups.
	MOVQ         CX, X13
	VPBROADCASTQ X13, Y13
	VPCMPGTQ     laneIndex<>+0(SB), Y13, Y8
	VPCMPGTQ     laneIndex<>+32(SB), Y13, Y9
	VPCMPGTQ     laneIndex<>+64(SB), Y13, Y10
	VPCMPGTQ     laneIndex<>+96(SB), Y13, Y11
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VXORPD       X14, X14, X14
	MOVQ         DX, R12
	MOVQ         DI, R13
	XORQ         AX, AX
	JMP          tailtest

tailloop:
	VBROADCASTSD (R13), Y4
	VMASKMOVPD   (R12), Y8, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMASKMOVPD   32(R12), Y9, Y6
	VMULPD       Y6, Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMASKMOVPD   64(R12), Y10, Y7
	VMULPD       Y7, Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMASKMOVPD   96(R12), Y11, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y3, Y3
	VADDSD       X4, X14, X14
	ADDQ         R11, R12
	ADDQ         $8, R13
	INCQ         AX
	TESTQ        $3, AX
	JNZ          tailtest
	ADDQ         R10, R13

tailtest:
	CMPQ       AX, R9
	JLT        tailloop
	VMULPD     Y0, Y15, Y0
	VMASKMOVPD (SI), Y8, Y4
	VSUBPD     Y0, Y4, Y4
	VMASKMOVPD Y4, Y8, (SI)
	VMULPD     Y1, Y15, Y1
	VMASKMOVPD 32(SI), Y9, Y5
	VSUBPD     Y1, Y5, Y5
	VMASKMOVPD Y5, Y9, 32(SI)
	VMULPD     Y2, Y15, Y2
	VMASKMOVPD 64(SI), Y10, Y6
	VSUBPD     Y2, Y6, Y6
	VMASKMOVPD Y6, Y10, 64(SI)
	VMULPD     Y3, Y15, Y3
	VMASKMOVPD 96(SI), Y11, Y7
	VSUBPD     Y3, Y7, Y7
	VMASKMOVPD Y7, Y11, 96(SI)
	LEAQ       (SI)(CX*8), SI

bias:
	VMULSD X14, X15, X14
	VMOVSD (BX), X4
	VSUBSD X14, X4, X4
	VMOVSD X4, (BX)
	ADDQ   $8, BX
	ADDQ   $32, DI
	DECQ   R8
	JMP    output

gdone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
