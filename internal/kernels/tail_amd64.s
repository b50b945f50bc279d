#include "textflag.h"

// The fused GEMM tails' bodies: AVX (256-bit) float32 add, subtract and
// multiply only — no FMA — so every element is bitwise what the Go loops
// in elementwise.go and layernorm.go compute. Lengths are whole 8-element
// groups (n > 0, n % 8 == 0); loads and stores are unaligned, and each
// group is loaded before it is stored, so the output may alias an input.
//
// Where both operands of an operation are NaN, the result is the first
// Intel source's NaN, quieted: a's for the row add, (x−mu)'s for gamma's
// multiply, the running value's for beta's add, the running sums' for the
// dγ/dβ adds.

// func addRowAVX2(n int64, dst, a, b *float32)
//
// dst[i] = a[i] + b[i].
TEXT ·addRowAVX2(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	SHLQ $2, CX
	XORQ BX, BX
	TESTQ $32, CX               // an odd number of groups: do one first
	JZ   addpairs
	VMOVUPS (SI), Y0
	VADDPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	MOVQ $32, BX
	CMPQ BX, CX
	JGE  adddone

addpairs:
	VMOVUPS (SI)(BX*1), Y0
	VMOVUPS 32(SI)(BX*1), Y1
	VADDPS  (DX)(BX*1), Y0, Y0
	VADDPS  32(DX)(BX*1), Y1, Y1
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	ADDQ $64, BX
	CMPQ BX, CX
	JLT  addpairs

adddone:
	VZEROUPPER
	RET

// func lnApplyAVX2(n int64, y, x, gamma, beta *float32, mu, istd float32)
//
// y[i] = ((gamma[i]*(x[i]-mu))*istd)+beta[i], one rounding per operation.
TEXT ·lnApplyAVX2(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ y+8(FP), DI
	MOVQ x+16(FP), SI
	MOVQ gamma+24(FP), R8
	MOVQ beta+32(FP), R9
	VBROADCASTSS mu+40(FP), Y6
	VBROADCASTSS istd+44(FP), Y7
	SHLQ $2, CX
	XORQ BX, BX

lnloop:
	VMOVUPS (SI)(BX*1), Y0
	VSUBPS  Y6, Y0, Y0          // x-mu
	VMULPS  (R8)(BX*1), Y0, Y0  // gamma*(x-mu)
	VMULPS  Y7, Y0, Y0          // ... *istd
	VADDPS  (R9)(BX*1), Y0, Y0  // ... +beta
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JLT  lnloop
	VZEROUPPER
	RET

// func lnGradColsAVX2(n int64, dg, db, x, dy *float32, mu, istd float32)
//
// dg[i] += dy[i]*((x[i]-mu)*istd); db[i] += dy[i]: one row of LayerNorm's
// dγ/dβ column folds, one rounding per operation.
TEXT ·lnGradColsAVX2(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ dg+8(FP), DI
	MOVQ db+16(FP), DX
	MOVQ x+24(FP), SI
	MOVQ dy+32(FP), R8
	VBROADCASTSS mu+40(FP), Y6
	VBROADCASTSS istd+44(FP), Y7
	SHLQ $2, CX
	XORQ BX, BX

gradloop:
	VMOVUPS (SI)(BX*1), Y0
	VMOVUPS (R8)(BX*1), Y1      // dy
	VSUBPS  Y6, Y0, Y0          // x-mu
	VMULPS  Y7, Y0, Y0          // xhat
	VMULPS  Y1, Y0, Y0          // xhat*dy
	VMOVUPS (DI)(BX*1), Y2
	VADDPS  Y0, Y2, Y2          // dg + ...
	VMOVUPS Y2, (DI)(BX*1)
	VMOVUPS (DX)(BX*1), Y3
	VADDPS  Y1, Y3, Y3          // db + dy
	VMOVUPS Y3, (DX)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JLT  gradloop
	VZEROUPPER
	RET

// func lnGradApplyAVX2(n int64, dx, x, dy, gamma *float32, mu, istd, invN, meanG, sumGX float32)
//
// dx[i] = istd*((dy[i]*gamma[i]-meanG) - ((x[i]-mu)*istd*invN)*sumGX): one
// row of LayerNorm's input gradient, one rounding per operation.
TEXT ·lnGradApplyAVX2(SB), NOSPLIT, $0-60
	MOVQ n+0(FP), CX
	MOVQ dx+8(FP), DI
	MOVQ x+16(FP), SI
	MOVQ dy+24(FP), DX
	MOVQ gamma+32(FP), R8
	VBROADCASTSS mu+40(FP), Y6
	VBROADCASTSS istd+44(FP), Y7
	VBROADCASTSS invN+48(FP), Y8
	VBROADCASTSS meanG+52(FP), Y9
	VBROADCASTSS sumGX+56(FP), Y10
	SHLQ $2, CX
	XORQ BX, BX

applyloop:
	VMOVUPS (SI)(BX*1), Y0
	VSUBPS  Y6, Y0, Y0          // x-mu
	VMULPS  Y7, Y0, Y0          // xhat
	VMULPS  Y8, Y0, Y0          // xhat*invN
	VMULPS  Y10, Y0, Y0         // ... *sumGX
	VMOVUPS (DX)(BX*1), Y1
	VMULPS  (R8)(BX*1), Y1, Y1  // g = dy*gamma
	VSUBPS  Y9, Y1, Y1          // g-meanG
	VSUBPS  Y0, Y1, Y1          // ... - xhat*invN*sumGX
	VMULPS  Y7, Y1, Y1          // istd* ...
	VMOVUPS Y1, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JLT  applyloop
	VZEROUPPER
	RET

// func mulRowAVX2(n int64, dst, a, b *float32)
//
// dst[i] = a[i]*b[i].
TEXT ·mulRowAVX2(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	SHLQ $2, CX
	XORQ BX, BX

mulloop:
	VMOVUPS (SI)(BX*1), Y0
	VMULPS  (DX)(BX*1), Y0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JLT  mulloop
	VZEROUPPER
	RET

// func scaleRowAVX2(n int64, dst, a *float32, s float32)
//
// dst[i] = s*a[i].
TEXT ·scaleRowAVX2(SB), NOSPLIT, $0-28
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	VBROADCASTSS s+24(FP), Y6
	SHLQ $2, CX
	XORQ BX, BX

scaleloop:
	VMULPS  (SI)(BX*1), Y6, Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, CX
	JLT  scaleloop
	VZEROUPPER
	RET
