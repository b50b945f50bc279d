#include "textflag.h"

// DropoutMask's AVX-512 body: eight xorshift64* sub-streams, one per
// 64-bit lane, each filling its own contiguous eighth of the span. A step
// advances every lane's state by one draw (three shift-xors), multiplies
// (VPMULLQ, AVX512DQ) and compares u>>40 against the threshold, one mask
// bit per lane. Eight steps make an 8×8 bit matrix, steps by lanes; a
// transpose in a general register turns it into eight bytes, lane j's
// eight consecutive elements, stored as keep or +0 under that byte.

// STEP advances the states in Z0 by one draw and ors the lanes whose
// draw drops its element into bits sh..sh+7 of DX.
#define STEP(sh) \
	VPSRLQ  $12, Z0, Z1; \
	VPXORQ  Z1, Z0, Z0; \
	VPSLLQ  $25, Z0, Z1; \
	VPXORQ  Z1, Z0, Z0; \
	VPSRLQ  $27, Z0, Z1; \
	VPXORQ  Z1, Z0, Z0; \
	VPMULLQ Z20, Z0, Z1; \
	VPSRLQ  $40, Z1, Z1; \
	VPCMPUQ $1, Z21, Z1, K1; \
	KMOVB   K1, AX; \
	SHLQ    $sh, AX; \
	ORQ     AX, DX

// DELTASWAP exchanges the bits of DX selected by m with those d places
// above them.
#define DELTASWAP(d, m) \
	MOVQ DX, AX; \
	SHRQ $d, AX; \
	XORQ DX, AX; \
	ANDQ m, AX; \
	XORQ AX, DX; \
	SHLQ $d, AX; \
	XORQ AX, DX

// LANE stores lane j's eight elements from the low byte of DX at addr,
// then moves the next lane's byte down.
#define LANE(addr) \
	KMOVB     DX, K2; \
	VMOVAPS.Z Y22, K2, Y2; \
	VMOVUPS   Y2, addr; \
	SHRQ      $8, DX

// func dropoutFill512(n int64, mask *float32, st *[8]uint64, thr uint64, keep float32)
//
// n is 8·lane, lane a positive multiple of 8; lane j fills
// mask[j·lane:(j+1)·lane] from st[j] and leaves its final state there.
TEXT ·dropoutFill512(SB), NOSPLIT, $0-36
	MOVQ n+0(FP), CX
	MOVQ mask+8(FP), DI
	MOVQ st+16(FP), R10
	VPBROADCASTQ thr+24(FP), Z21
	VBROADCASTSS keep+32(FP), Y22
	MOVQ $0x2545F4914F6CDD1D, AX
	VPBROADCASTQ AX, Z20
	VMOVDQU64 (R10), Z0
	LEAQ 0(CX*4), R8          // bytes of mask
	SHRQ $3, R8               // lane stride in bytes
	LEAQ (R8)(R8*2), R9       // three strides
	LEAQ (DI)(R8*4), R12      // lane 4
	SHRQ $6, CX               // groups of eight steps
	MOVQ $0x00AA00AA00AA00AA, SI
	MOVQ $0x0000CCCC0000CCCC, R11
	MOVQ $0x00000000F0F0F0F0, R13

loop:
	XORQ DX, DX
	STEP(0)
	STEP(8)
	STEP(16)
	STEP(24)
	STEP(32)
	STEP(40)
	STEP(48)
	STEP(56)
	DELTASWAP(7, SI)
	DELTASWAP(14, R11)
	DELTASWAP(28, R13)
	NOTQ DX                   // set bits now keep
	LANE((DI))
	LANE((DI)(R8*1))
	LANE((DI)(R8*2))
	LANE((DI)(R9*1))
	LANE((R12))
	LANE((R12)(R8*1))
	LANE((R12)(R8*2))
	LANE((R12)(R9*1))
	ADDQ $32, DI
	ADDQ $32, R12
	DECQ CX
	JNZ  loop

	VMOVDQU64 Z0, (R10)
	VZEROUPPER
	RET
