#include "textflag.h"

// func kernelAVX2(kc int, a, b, c []float64, ldc int)
//
// The 4×8 tile of C lives in Y0..Y7 (row r in Y(2r), Y(2r+1)).  Each
// step loads one 8-wide row of the B panel, broadcasts the four A
// values of that k, and does a separate VMULPD and VADDPD per
// accumulator — never a fused multiply-add — so every element sees the
// same two roundings per term as the portable kernel.
TEXT ·kernelAVX2(SB), NOSPLIT, $0-88
	MOVQ kc+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DI
	MOVQ c_base+56(FP), DX
	MOVQ ldc+80(FP), R8
	SHLQ $3, R8
	LEAQ (DX)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7

	TESTQ CX, CX
	JLE   store

loop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9

	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1

	VBROADCASTSD 8(SI), Y13
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3

	VBROADCASTSD 16(SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5

	VBROADCASTSD 24(SI), Y13
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7

	ADDQ $32, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
