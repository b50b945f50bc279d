#include "textflag.h"

// The LAMB bodies: AVX (256-bit) float32 arithmetic restricted to IEEE
// multiply, add, subtract, divide and square root — no FMA and no
// reciprocal estimates — so every element is bitwise what the Go bodies in
// lamb.go and reduce.go compute. Lengths are whole 8-element groups
// (n > 0, n % 8 == 0); loads and stores are unaligned.

// SQACC8 adds the squares of the eight floats in src, widened to float64,
// to the lane accumulators lo (elements 0-3) and hi (elements 4-7). src
// and tmp are clobbered (srcx is src's low half).
#define SQACC8(src, srcx, tmp, lo, hi) \
	VCVTPS2PD    srcx, tmp; \
	VMULPD       tmp, tmp, tmp; \
	VADDPD       tmp, lo, lo; \
	VEXTRACTF128 $1, src, srcx; \
	VCVTPS2PD    srcx, src; \
	VMULPD       src, src, src; \
	VADDPD       src, hi, hi

// FOLD8 combines eight float64 lanes (lo = lanes 0-3, hi = lanes 4-7) as
// ((0+1)+(2+3))+((4+5)+(6+7)) into the low element of lox. tmpx is
// clobbered.
#define FOLD8(lo, lox, hi, tmpx) \
	VHADDPD      hi, lo, lo; \
	VEXTRACTF128 $1, lo, tmpx; \
	VADDPD       tmpx, lox, lox; \
	VHADDPD      lox, lox, lox

// func lambStage1AVX2(n int64, grad, mom, vel, wt, upd *float32, coef *lambCoef, sums *[2]float64)
//
// One pass of LAMB stage 1 (lambCoef.update per element) that also folds
// ‖w‖² into sums[0] and ‖u‖² into sums[1].
//
// Register plan: Y7-Y15 the nine broadcast scalars in lambCoef order,
// Y3/Y4 and Y5/Y6 the float64 lanes of ‖w‖² and ‖u‖², Y0-Y2 temporaries.
TEXT ·lambStage1AVX2(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), CX
	MOVQ grad+8(FP), SI
	MOVQ mom+16(FP), DI
	MOVQ vel+24(FP), R8
	MOVQ wt+32(FP), R9
	MOVQ upd+40(FP), R10
	MOVQ coef+48(FP), AX
	MOVQ sums+56(FP), DX
	VBROADCASTSS 0(AX), Y7      // gradScale
	VBROADCASTSS 4(AX), Y8      // beta1
	VBROADCASTSS 8(AX), Y9      // 1-beta1
	VBROADCASTSS 12(AX), Y10    // beta2
	VBROADCASTSS 16(AX), Y11    // 1-beta2
	VBROADCASTSS 20(AX), Y12    // bc1
	VBROADCASTSS 24(AX), Y13    // bc2
	VBROADCASTSS 28(AX), Y14    // eps
	VBROADCASTSS 32(AX), Y15    // weightDecay
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	SHLQ $2, CX                 // length in bytes
	XORQ BX, BX                 // byte offset

stage1loop:
	VMULPS  (SI)(BX*1), Y7, Y0  // g' = g*gradScale
	VMULPS  Y0, Y11, Y1         // (1-beta2)*g'
	VMULPS  Y0, Y1, Y1          // ... *g'
	VMULPS  (R8)(BX*1), Y10, Y2 // beta2*v
	VADDPS  Y1, Y2, Y2          // v
	VMOVUPS Y2, (R8)(BX*1)
	VMULPS  Y0, Y9, Y0          // (1-beta1)*g'
	VMULPS  (DI)(BX*1), Y8, Y1  // beta1*m
	VADDPS  Y0, Y1, Y1          // m
	VMOVUPS Y1, (DI)(BX*1)
	VDIVPS  Y12, Y1, Y1         // m/bc1
	VDIVPS  Y13, Y2, Y2         // v/bc2
	VSQRTPS Y2, Y2
	VADDPS  Y14, Y2, Y2         // sqrt(v/bc2)+eps
	VDIVPS  Y2, Y1, Y1
	VMOVUPS (R9)(BX*1), Y0      // w
	VMULPS  Y0, Y15, Y2         // weightDecay*w
	VADDPS  Y2, Y1, Y1          // u
	VMOVUPS Y1, (R10)(BX*1)
	SQACC8(Y0, X0, Y2, Y3, Y4)
	SQACC8(Y1, X1, Y2, Y5, Y6)
	ADDQ $32, BX
	CMPQ BX, CX
	JLT  stage1loop

	FOLD8(Y3, X3, Y4, X0)
	FOLD8(Y5, X5, Y6, X0)
	VMOVSD X3, 0(DX)
	VMOVSD X5, 8(DX)
	VZEROUPPER
	RET

// func subScaledAVX2(n int64, y, x *float32, a float32)
//
// y[i] -= a*x[i], the product rounded before the subtraction.
TEXT ·subScaledAVX2(SB), NOSPLIT, $0-28
	MOVQ n+0(FP), CX
	MOVQ y+8(FP), DI
	MOVQ x+16(FP), SI
	VBROADCASTSS a+24(FP), Y2
	SHLQ $2, CX
	XORQ BX, BX

subloop:
	VMULPS  (SI)(BX*1), Y2, Y0
	VMOVUPS (DI)(BX*1), Y1
	VSUBPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JLT  subloop
	VZEROUPPER
	RET

// func sumSquaresAVX2(n int64, x *float32) float64
//
// The eight-lane float64 fold of sum(x[i]^2) (reduce.go).
TEXT ·sumSquaresAVX2(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	SHLQ $2, CX
	XORQ BX, BX

sumsqloop:
	VCVTPS2PD (SI)(BX*1), Y0
	VCVTPS2PD 16(SI)(BX*1), Y1
	VMULPD    Y0, Y0, Y0
	VMULPD    Y1, Y1, Y1
	VADDPD    Y0, Y3, Y3
	VADDPD    Y1, Y4, Y4
	ADDQ $32, BX
	CMPQ BX, CX
	JLT  sumsqloop

	FOLD8(Y3, X3, Y4, X0)
	VMOVSD X3, ret+16(FP)
	VZEROUPPER
	RET
