#include "textflag.h"

// The fused GEMM tails' bodies: AVX (256-bit) float32 add, subtract and
// multiply only — no FMA — so every element is bitwise what the Go loops
// in elementwise.go and layernorm.go compute. Lengths are whole 8-element
// groups (n > 0, n % 8 == 0); loads and stores are unaligned, and each
// group is loaded before it is stored, so y may alias x.
//
// Where both operands of an operation are NaN, the result is the first
// Intel source's NaN, quieted: y's for the row add, (x−mu)'s for gamma's
// multiply, the running value's for beta's add.

// func addRowAVX2(n int64, y, x *float32)
//
// y[i] += x[i].
TEXT ·addRowAVX2(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ y+8(FP), DI
	MOVQ x+16(FP), SI
	SHLQ $2, CX
	XORQ BX, BX
	TESTQ $32, CX               // an odd number of groups: do one first
	JZ   addpairs
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	MOVQ $32, BX
	CMPQ BX, CX
	JGE  adddone

addpairs:
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS 32(DI)(BX*1), Y1
	VADDPS  (SI)(BX*1), Y0, Y0
	VADDPS  32(SI)(BX*1), Y1, Y1
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
