// AVX2+FMA microkernels for the float32 and float64 hot loops. Pure
// vector-body loops: every function requires len(dst) to be a multiple of
// the lane count (8 for float32, 4 for float64) and every operand slice to
// be at least len(dst) long — the Go dispatch wrappers in simd.go truncate
// and handle the scalar tail. The softmax kernels (expSum*, max*) instead
// round the length down themselves and report how far they got. Only
// reached when simdEnabled is true (AVX2+FMA+OS-XSAVE verified at init), so
// the instructions below are safe.
//
//go:build !purego

#include "textflag.h"

// func axpy2F32AVX(a0, a1 float32, b0, b1, dst []float32)
// dst[j] += a0*b0[j] + a1*b1[j] — the GEMM inner kernel.
TEXT ·axpy2F32AVX(SB), NOSPLIT, $0-80
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	MOVQ b0_base+8(FP), SI
	MOVQ b1_base+32(FP), DX
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	XORQ AX, AX
axpy2f32loop:
	CMPQ AX, CX
	JGE  axpy2f32done
	VMOVUPS (SI)(AX*4), Y2
	VMOVUPS (DX)(AX*4), Y3
	VMOVUPS (DI)(AX*4), Y4
	VFMADD231PS Y2, Y0, Y4
	VFMADD231PS Y3, Y1, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ $8, AX
	JMP  axpy2f32loop
axpy2f32done:
	VZEROUPPER
	RET

// func axpy2F64AVX(a0, a1 float64, b0, b1, dst []float64)
TEXT ·axpy2F64AVX(SB), NOSPLIT, $0-88
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	MOVQ b0_base+16(FP), SI
	MOVQ b1_base+40(FP), DX
	MOVQ dst_base+64(FP), DI
	MOVQ dst_len+72(FP), CX
	XORQ AX, AX
axpy2f64loop:
	CMPQ AX, CX
	JGE  axpy2f64done
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DX)(AX*8), Y3
	VMOVUPD (DI)(AX*8), Y4
	VFMADD231PD Y2, Y0, Y4
	VFMADD231PD Y3, Y1, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy2f64loop
axpy2f64done:
	VZEROUPPER
	RET

// func axpyF32AVX(a float32, x, y []float32)
// y[j] += a*x[j]
TEXT ·axpyF32AVX(SB), NOSPLIT, $0-56
	VBROADCASTSS a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	XORQ AX, AX
axpyf32loop:
	CMPQ AX, CX
	JGE  axpyf32done
	VMOVUPS (SI)(AX*4), Y2
	VMOVUPS (DI)(AX*4), Y3
	VFMADD231PS Y2, Y0, Y3
	VMOVUPS Y3, (DI)(AX*4)
	ADDQ $8, AX
	JMP  axpyf32loop
axpyf32done:
	VZEROUPPER
	RET

// func axpyF64AVX(a float64, x, y []float64)
TEXT ·axpyF64AVX(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	XORQ AX, AX
axpyf64loop:
	CMPQ AX, CX
	JGE  axpyf64done
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	VFMADD231PD Y2, Y0, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpyf64loop
axpyf64done:
	VZEROUPPER
	RET

// func lerpF32AVX(dst, src []float32, omt, t float32)
// dst[j] = omt*dst[j] + t*src[j] — the exponential trace update.
TEXT ·lerpF32AVX(SB), NOSPLIT, $0-56
	VBROADCASTSS omt+48(FP), Y0
	VBROADCASTSS t+52(FP), Y1
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
lerpf32loop:
	CMPQ AX, CX
	JGE  lerpf32done
	VMOVUPS (DI)(AX*4), Y2
	VMOVUPS (SI)(AX*4), Y3
	VMULPS Y0, Y2, Y2
	VFMADD231PS Y3, Y1, Y2
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ $8, AX
	JMP  lerpf32loop
lerpf32done:
	VZEROUPPER
	RET

// func lerpF64AVX(dst, src []float64, omt, t float64)
TEXT ·lerpF64AVX(SB), NOSPLIT, $0-64
	VBROADCASTSD omt+48(FP), Y0
	VBROADCASTSD t+56(FP), Y1
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
lerpf64loop:
	CMPQ AX, CX
	JGE  lerpf64done
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y3
	VMULPD Y0, Y2, Y2
	VFMADD231PD Y3, Y1, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  lerpf64loop
lerpf64done:
	VZEROUPPER
	RET

// func scaleF32AVX(a float32, x []float32)
// x[j] *= a — the trace decay pass.
TEXT ·scaleF32AVX(SB), NOSPLIT, $0-32
	VBROADCASTSS a+0(FP), Y0
	MOVQ x_base+8(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX
scalef32loop:
	CMPQ AX, CX
	JGE  scalef32done
	VMOVUPS (DI)(AX*4), Y2
	VMULPS Y0, Y2, Y2
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ $8, AX
	JMP  scalef32loop
scalef32done:
	VZEROUPPER
	RET

// func scaleF64AVX(a float64, x []float64)
TEXT ·scaleF64AVX(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y0
	MOVQ x_base+8(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX
scalef64loop:
	CMPQ AX, CX
	JGE  scalef64done
	VMOVUPD (DI)(AX*8), Y2
	VMULPD Y0, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  scalef64loop
scalef64done:
	VZEROUPPER
	RET

// func addF32AVX(dst, src []float32)
// dst[j] += src[j] — the one-hot weight-row gather.
TEXT ·addF32AVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
addf32loop:
	CMPQ AX, CX
	JGE  addf32done
	VMOVUPS (DI)(AX*4), Y2
	VMOVUPS (SI)(AX*4), Y3
	VADDPS Y3, Y2, Y2
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ $8, AX
	JMP  addf32loop
addf32done:
	VZEROUPPER
	RET

// func addF64AVX(dst, src []float64)
TEXT ·addF64AVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
addf64loop:
	CMPQ AX, CX
	JGE  addf64done
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  addf64loop
addf64done:
	VZEROUPPER
	RET

// Exp constants of $GOROOT/src/math/exp_amd64.s, each repeated in four
// float64 lanes so the kernels can take them as 256-bit memory operands.
#define F64X4(off, bits) DATA expc64<>+off(SB)/8, $bits; DATA expc64<>+off+8(SB)/8, $bits; DATA expc64<>+off+16(SB)/8, $bits; DATA expc64<>+off+24(SB)/8, $bits

F64X4(0x000, 0x3FF71547652B82FE) // LOG2E
F64X4(0x020, 0x3FE62E42FEFA3000) // LN2U, upper part of ln 2
F64X4(0x040, 0x3D53DE6AF278ECE6) // LN2L, lower part of ln 2
F64X4(0x060, 0x3FB0000000000000) // 0.0625
F64X4(0x080, 0x3EFA01A01A01A01A) // 1/8!
F64X4(0x0A0, 0x3F2A01A01A01A01A) // 1/7!
F64X4(0x0C0, 0x3F56C16C16C16C17) // 1/6!
F64X4(0x0E0, 0x3F81111111111111) // 1/5!
F64X4(0x100, 0x3FA5555555555555) // 1/4!
F64X4(0x120, 0x3FC5555555555555) // 1/3!
F64X4(0x140, 0x3FE0000000000000) // 0.5
F64X4(0x160, 0x3FF0000000000000) // 1.0
F64X4(0x180, 0x4000000000000000) // 2.0
F64X4(0x1A0, 0xC086200000000000) // -708, lower bound of the lane range (exclusive)
F64X4(0x1C0, 0x4086280000000000) // 709, upper bound of the lane range (exclusive)
F64X4(0x1E0, 0x00000000000003FF) // exponent bias 1023 (int64)
GLOBL expc64<>(SB), RODATA, $512

// Exp32's float32 constants (math32.go), each repeated in eight lanes.
#define F32X8(off, bits) DATA expc32<>+off(SB)/4, $bits; DATA expc32<>+off+4(SB)/4, $bits; DATA expc32<>+off+8(SB)/4, $bits; DATA expc32<>+off+12(SB)/4, $bits; DATA expc32<>+off+16(SB)/4, $bits; DATA expc32<>+off+20(SB)/4, $bits; DATA expc32<>+off+24(SB)/4, $bits; DATA expc32<>+off+28(SB)/4, $bits

F32X8(0x000, 0x3FB8AA3B) // log2E32
F32X8(0x020, 0x3F000000) // 0.5, also q0
F32X8(0x040, 0x3F318000) // ln2Hi32
F32X8(0x060, 0xB95E8083) // ln2Lo32
F32X8(0x080, 0x3E2AAAAA) // q1
F32X8(0x0A0, 0x3D2AA9C1) // q2
F32X8(0x0C0, 0x3C088908) // q3
F32X8(0x0E0, 0x3AB743CE) // q4
F32X8(0x100, 0x39506967) // q5
F32X8(0x120, 0x3F800000) // 1.0
F32X8(0x140, 0xC2AEAC50) // expLo32
F32X8(0x160, 0x42B0C0A5) // expHi32
F32X8(0x180, 0x7F800000) // +Inf
F32X8(0x1A0, 0x0000007F) // exponent bias 127 (int32)
F32X8(0x1C0, 0x0000007E) // 126 (int32)
F32X8(0x1E0, 0xFFFFFF82) // -126 (int32)
GLOBL expc32<>(SB), RODATA, $512

// func expSumF64AVX(x []float64, maxv, t, s float64) (n int, sum float64)
// x[i] = math.Exp((x[i]-maxv)/t) for i in [0, n), n a multiple of 4, and
// sum = s + x[0] + x[1] + ... + x[n-1], added in index order. Each lane runs
// the avxfma path of math's archExp instruction for instruction; it stops at
// the first block holding a lane whose argument is outside (-708, 709) or
// NaN, where archExp would take another branch.
TEXT ·expSumF64AVX(SB), NOSPLIT, $0-64
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	VBROADCASTSD maxv+24(FP), Y15
	VBROADCASTSD t+32(FP), Y14
	VMOVSD s+40(FP), X13
	VMOVUPD expc64<>+0x1A0(SB), Y12
	VMOVUPD expc64<>+0x1C0(SB), Y11
	ANDQ $-4, CX
	XORQ AX, AX

e64loop:
	CMPQ AX, CX
	JGE  e64done
	VMOVUPD (DI)(AX*8), Y0
	VSUBPD  Y15, Y0, Y0
	VDIVPD  Y14, Y0, Y0 // a = (x - maxv) / t

	// Every lane must satisfy -708 < a < 709 (ordered compares: NaN fails).
	VCMPPD    $0x1e, Y12, Y0, Y1
	VCMPPD    $0x11, Y11, Y0, Y2
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPL      BX, $0xf
	JNE       e64done

	// n = round(LOG2E*a) under the default MXCSR; a -= n*LN2U; a -= n*LN2L.
	VMULPD       expc64<>+0x000(SB), Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD expc64<>+0x020(SB), Y1, Y0
	VFNMADD231PD expc64<>+0x040(SB), Y1, Y0
	VMULPD       expc64<>+0x060(SB), Y0, Y0

	// Degree-8 Taylor polynomial of exp(a)-1 over a/16 in Horner form.
	VMOVUPD     expc64<>+0x080(SB), Y1
	VFMADD213PD expc64<>+0x0A0(SB), Y0, Y1
	VFMADD213PD expc64<>+0x0C0(SB), Y0, Y1
	VFMADD213PD expc64<>+0x0E0(SB), Y0, Y1
	VFMADD213PD expc64<>+0x100(SB), Y0, Y1
	VFMADD213PD expc64<>+0x120(SB), Y0, Y1
	VFMADD213PD expc64<>+0x140(SB), Y0, Y1
	VFMADD213PD expc64<>+0x160(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0

	// Square back up four times: r = r*(r+2), the last one fused with +1.
	VADDPD      expc64<>+0x180(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expc64<>+0x180(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expc64<>+0x180(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expc64<>+0x180(SB), Y0, Y1
	VFMADD213PD expc64<>+0x160(SB), Y1, Y0

	// ldexp: n+1023 lies in [2, 2046] for every admitted lane.
	VPMOVSXDQ X2, Y3
	VPADDQ    expc64<>+0x1E0(SB), Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)

	// sum += lane 0, 1, 2, 3 in that order.
	VADDSD       X0, X13, X13
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X13, X13
	VEXTRACTF128 $1, Y0, X0
	VADDSD       X0, X13, X13
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X13, X13
	ADDQ         $4, AX
	JMP          e64loop

e64done:
	MOVQ   AX, n+48(FP)
	VMOVSD X13, sum+56(FP)
	VZEROUPPER
	RET

// func expSumF32AVX(x []float32, maxv, invT, s float32) (n int, sum float32)
// x[i] = Exp32((x[i]-maxv)*invT) for i in [0, n), n a multiple of 8, and sum
// = s + x[0] + ... + x[n-1] in index order. Each lane repeats Exp32's float32
// arithmetic in its association order (no FMA: amd64 Go never contracts),
// including the clamps to 0 and +Inf. It stops at the first block holding a
// NaN lane or a lane inside the clamps whose 2^n is not a normal float32.
TEXT ·expSumF32AVX(SB), NOSPLIT, $0-52
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	VBROADCASTSS maxv+24(FP), Y15
	VBROADCASTSS invT+28(FP), Y14
	VMOVSS s+32(FP), X13
	VMOVUPS expc32<>+0x140(SB), Y12
	VMOVUPS expc32<>+0x160(SB), Y11
	ANDQ $-8, CX
	XORQ AX, AX

e32loop:
	CMPQ AX, CX
	JGE  e32done
	VMOVUPS (DI)(AX*4), Y0
	VSUBPS  Y15, Y0, Y0
	VMULPS  Y14, Y0, Y0 // a = (x - maxv) * invT
	VCMPPS  $0x11, Y12, Y0, Y9  // a < expLo32: result 0
	VCMPPS  $0x1e, Y11, Y0, Y10 // a > expHi32: result +Inf

	// n = floor(log2E32*a + 0.5)
	VMULPS     expc32<>+0x000(SB), Y0, Y1
	VADDPS     expc32<>+0x020(SB), Y1, Y1
	VROUNDPS   $1, Y1, Y1
	VCVTTPS2DQ Y1, Y2

	// Stop on a NaN lane, or an unclamped lane with n outside [-126, 126].
	VPCMPGTD  expc32<>+0x1C0(SB), Y2, Y3
	VMOVDQU   expc32<>+0x1E0(SB), Y4
	VPCMPGTD  Y2, Y4, Y4
	VPOR      Y4, Y3, Y3
	VORPS     Y10, Y9, Y4
	VANDNPS   Y3, Y4, Y3
	VCMPPS    $3, Y0, Y0, Y4
	VORPS     Y4, Y3, Y3
	VMOVMSKPS Y3, BX
	TESTL     BX, BX
	JNZ       e32done

	// r = (a - n*ln2Hi32) - n*ln2Lo32
	VMULPS expc32<>+0x040(SB), Y1, Y3
	VSUBPS Y3, Y0, Y0
	VMULPS expc32<>+0x060(SB), Y1, Y3
	VSUBPS Y3, Y0, Y0

	// y = (p*r2 + r) + 1, p = (q0+q1*r) + ((q2+q3*r) + (q4+q5*r)*r2)*r2
	VMULPS Y0, Y0, Y1
	VMULPS expc32<>+0x080(SB), Y0, Y3
	VADDPS expc32<>+0x020(SB), Y3, Y3
	VMULPS expc32<>+0x0C0(SB), Y0, Y4
	VADDPS expc32<>+0x0A0(SB), Y4, Y4
	VMULPS expc32<>+0x100(SB), Y0, Y5
	VADDPS expc32<>+0x0E0(SB), Y5, Y5
	VMULPS Y1, Y5, Y5
	VADDPS Y5, Y4, Y4
	VMULPS Y1, Y4, Y4
	VADDPS Y4, Y3, Y3
	VMULPS Y1, Y3, Y3
	VADDPS Y0, Y3, Y3
	VADDPS expc32<>+0x120(SB), Y3, Y3

	// y * 2^n, then the clamps.
	VPADDD    expc32<>+0x1A0(SB), Y2, Y2
	VPSLLD    $23, Y2, Y2
	VMULPS    Y2, Y3, Y3
	VANDNPS   Y3, Y9, Y3
	VBLENDVPS Y10, expc32<>+0x180(SB), Y3, Y3
	VMOVUPS   Y3, (DI)(AX*4)

	// sum += lane 0, 1, ..., 7 in that order.
	VADDSS       X3, X13, X13
	VMOVSHDUP    X3, X4
	VADDSS       X4, X13, X13
	VPERMILPD    $1, X3, X4
	VADDSS       X4, X13, X13
	VPERMILPS    $3, X3, X4
	VADDSS       X4, X13, X13
	VEXTRACTF128 $1, Y3, X3
	VADDSS       X3, X13, X13
	VMOVSHDUP    X3, X4
	VADDSS       X4, X13, X13
	VPERMILPD    $1, X3, X4
	VADDSS       X4, X13, X13
	VPERMILPS    $3, X3, X4
	VADDSS       X4, X13, X13
	ADDQ         $8, AX
	JMP          e32loop

e32done:
	MOVQ   AX, n+40(FP)
	VMOVSS X13, sum+48(FP)
	VZEROUPPER
	RET

// func maxF64AVX(x []float64) (m float64, nan bool)
// m is the largest element of x[:len(x)&^3] (len(x) >= 4; the sign of a
// zero maximum is unspecified); nan reports whether any of those elements
// is NaN, in which case m is meaningless.
TEXT ·maxF64AVX(SB), NOSPLIT, $0-33
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	ANDQ $-4, CX
	VMOVUPD (DI), Y0
	VXORPD  Y1, Y1, Y1
	XORQ    AX, AX

m64loop:
	CMPQ    AX, CX
	JGE     m64done
	VMOVUPD (DI)(AX*8), Y2
	VCMPPD  $3, Y2, Y2, Y3
	VORPD   Y3, Y1, Y1
	VMAXPD  Y2, Y0, Y0
	ADDQ    $4, AX
	JMP     m64loop

m64done:
	VEXTRACTF128 $1, Y0, X2
	VMAXPD       X2, X0, X0
	VPERMILPD    $1, X0, X2
	VMAXSD       X2, X0, X0
	VMOVSD       X0, m+24(FP)
	VMOVMSKPD    Y1, BX
	TESTL        BX, BX
	SETNE        nan+32(FP)
	VZEROUPPER
	RET

// func maxF32AVX(x []float32) (m float32, nan bool)
// The float32 twin of maxF64AVX over x[:len(x)&^7] (len(x) >= 8).
TEXT ·maxF32AVX(SB), NOSPLIT, $0-29
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	ANDQ $-8, CX
	VMOVUPS (DI), Y0
	VXORPS  Y1, Y1, Y1
	XORQ    AX, AX

m32loop:
	CMPQ    AX, CX
	JGE     m32done
	VMOVUPS (DI)(AX*4), Y2
	VCMPPS  $3, Y2, Y2, Y3
	VORPS   Y3, Y1, Y1
	VMAXPS  Y2, Y0, Y0
	ADDQ    $8, AX
	JMP     m32loop

m32done:
	VEXTRACTF128 $1, Y0, X2
	VMAXPS       X2, X0, X0
	VPERMILPD    $1, X0, X2
	VMAXPS       X2, X0, X0
	VMOVSHDUP    X0, X2
	VMAXSS       X2, X0, X0
	VMOVSS       X0, m+24(FP)
	VMOVMSKPS    Y1, BX
	TESTL        BX, BX
	SETNE        nan+28(FP)
	VZEROUPPER
	RET

// func addNormalF64AVX(x []float64, std float64, lanes *noiseLanes, tab *zigTables, fails []noiseGroup) (n, nf int)
// The fast path of AddNormal over x[:len(x)&^3], one group of four elements
// per xoshiro256+ step of the four lanes (Y0-Y3 hold words s0-s3). Each lane
// whose candidate passes the fast test gets x += std*z, with z = mag*w[i]
// and the sign applied after, unfused, as zigFast computes it. A group with
// a failing lane stores the passing lanes only and is appended to fails
// (element offset, then the four candidates); the kernel stops after
// len(fails) >= 1 such groups. n is the elements consumed, nf the groups
// recorded, and the lanes are written back advanced n/4 steps.
TEXT ·addNormalF64AVX(SB), NOSPLIT, $0-88
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	ANDQ         $-4, CX
	VBROADCASTSD std+24(FP), Y7
	MOVQ         lanes+32(FP), R8
	MOVQ         tab+40(FP), R9
	MOVQ         fails_base+48(FP), R10
	MOVQ         fails_len+56(FP), R11
	VMOVDQU      0(R8), Y0
	VMOVDQU      32(R8), Y1
	VMOVDQU      64(R8), Y2
	VMOVDQU      96(R8), Y3
	MOVQ         $0x000FFFFFFFFFFFFF, BX // magnitude mask
	MOVQ         BX, X4
	VPBROADCASTQ X4, Y4
	MOVQ         $0x4330000000000000, BX // 2^52
	MOVQ         BX, X5
	VPBROADCASTQ X5, Y5
	VPCMPEQQ     Y15, Y15, Y15 // all ones: the gathers' lane mask
	VPSLLQ       $63, Y15, Y6  // sign bit
	XORQ         AX, AX
	XORQ         R12, R12
	CMPQ         AX, CX
	JGE          ndone

nloop:
	// u = s0 + s3, then the xoshiro256 state transition.
	VPADDQ Y0, Y3, Y8
	VPSLLQ $17, Y1, Y9
	VPXOR  Y0, Y2, Y2
	VPXOR  Y1, Y3, Y3
	VPXOR  Y2, Y1, Y1
	VPXOR  Y3, Y0, Y0
	VPXOR  Y9, Y2, Y2
	VPSLLQ $45, Y3, Y9
	VPSRLQ $19, Y3, Y3
	VPOR   Y9, Y3, Y3

	// Layer i = u>>56, magnitude = u>>3 & mask; pass = k[i] > magnitude.
	VPSRLQ     $56, Y8, Y10
	VPSRLQ     $3, Y8, Y11
	VPAND      Y4, Y11, Y11
	VMOVDQU    Y15, Y12
	VPGATHERQQ Y12, (R9)(Y10*8), Y13
	VMOVDQU    Y15, Y12
	VGATHERQPD Y12, 2048(R9)(Y10*8), Y14
	VPCMPGTQ   Y11, Y13, Y13

	// z = float64(magnitude) * w[i] (exact int->float through 2^52), sign
	// bit 55 moved to 63; x + std*z.
	VPOR    Y5, Y11, Y11
	VSUBPD  Y5, Y11, Y11
	VMULPD  Y14, Y11, Y11
	VPSLLQ  $8, Y8, Y9
	VPAND   Y6, Y9, Y9
	VXORPD  Y9, Y11, Y11
	VMULPD  Y7, Y11, Y11
	VMOVUPD (DI)(AX*8), Y9
	VADDPD  Y11, Y9, Y11

	VMOVMSKPD Y13, BX
	CMPL      BX, $0xf
	JNE       nfail
	VMOVUPD   Y11, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, CX
	JLT       nloop
	JMP       ndone

nfail:
	VBLENDVPD Y13, Y11, Y9, Y9
	VMOVUPD   Y9, (DI)(AX*8)
	MOVQ      R12, BX
	IMULQ     $40, BX
	MOVQ      AX, (R10)(BX*1)
	VMOVDQU   Y8, 8(R10)(BX*1)
	INCQ      R12
	ADDQ      $4, AX
	CMPQ      R12, R11
	JGE       ndone
	CMPQ      AX, CX
	JLT       nloop

ndone:
	VMOVDQU Y0, 0(R8)
	VMOVDQU Y1, 32(R8)
	VMOVDQU Y2, 64(R8)
	VMOVDQU Y3, 96(R8)
	MOVQ    AX, n+72(FP)
	MOVQ    R12, nf+80(FP)
	VZEROUPPER
	RET

// func cpuidLow(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidLow(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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
