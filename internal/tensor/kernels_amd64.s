#include "textflag.h"

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

// func kernel4x8AVX2(d, a, b *float64, kp, ld, ai, ap, ldb int)
//
// Y0–Y7 hold the 4×8 block of d, two registers per row, loaded once and
// stored once. Each step of p loads b[p*ldb : p*ldb+8] into Y8/Y9,
// broadcasts x[r][p] = a[r*ai+p*ap] into Y10–Y13, and updates every cell
// with a VMULPD followed by a VADDPD: the same two roundings, in the same
// ascending-p order, as the pure-Go loop. No FMA, by design. kp >= 1.
TEXT ·kernel4x8AVX2(SB), NOSPLIT, $0-64
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ kp+24(FP), CX
	MOVQ ld+32(FP), R8
	MOVQ ai+40(FP), R9
	MOVQ ap+48(FP), R10
	MOVQ ldb+56(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R12 // 3·ld in bytes
	LEAQ (R9)(R9*2), R13 // 3·ai in bytes

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (DI)(R12*1), Y6
	VMOVUPD 32(DI)(R12*1), Y7

loop:
	VMOVUPD      (DX), Y8
	VMOVUPD      32(DX), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R9*1), Y11
	VBROADCASTSD (SI)(R9*2), Y12
	VBROADCASTSD (SI)(R13*1), Y13
	VMULPD       Y8, Y10, Y14
	VMULPD       Y9, Y10, Y15
	VADDPD       Y14, Y0, Y0
	VADDPD       Y15, Y1, Y1
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VMULPD       Y8, Y12, Y14
	VMULPD       Y9, Y12, Y15
	VADDPD       Y14, Y4, Y4
	VADDPD       Y15, Y5, Y5
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	ADDQ         R10, SI
	ADDQ         R11, DX
	DECQ         CX
	JNZ          loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(R12*1)
	VMOVUPD Y7, 32(DI)(R12*1)
	VZEROUPPER
	RET
