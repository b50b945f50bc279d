#include "textflag.h"

// The transcendental spans' AVX-512 bodies (DESIGN.md §16 "Vector
// bodies"). Each evaluates its function in float64, 16 lanes per
// iteration as two 8-lane chains, over a span of 1..64 float32s, and keeps
// a lane only when float32(y-e) == float32(y+e), e bounding the distance
// to the reference expression: then the reference rounds to the same
// float32. Kept lanes are stored under a mask; the others — failed tests,
// NaN, inputs outside the body's range — are left untouched (so dst may be
// x) and come back as bits of the result, bit i for element i, for the
// caller to compute with the reference. The tail of a span is a load
// mask, never an access past it. GELU' is stored multiplied by a second
// operand, GeLUBackward's dY.

// Shared constants.
DATA vecIota<>+0(SB)/4, $0
DATA vecIota<>+4(SB)/4, $1
DATA vecIota<>+8(SB)/4, $2
DATA vecIota<>+12(SB)/4, $3
DATA vecIota<>+16(SB)/4, $4
DATA vecIota<>+20(SB)/4, $5
DATA vecIota<>+24(SB)/4, $6
DATA vecIota<>+28(SB)/4, $7
DATA vecIota<>+32(SB)/4, $8
DATA vecIota<>+36(SB)/4, $9
DATA vecIota<>+40(SB)/4, $10
DATA vecIota<>+44(SB)/4, $11
DATA vecIota<>+48(SB)/4, $12
DATA vecIota<>+52(SB)/4, $13
DATA vecIota<>+56(SB)/4, $14
DATA vecIota<>+60(SB)/4, $15
GLOBL vecIota<>(SB), RODATA|NOPTR, $64

DATA vecEps<>+0(SB)/8, $0x3D30000000000000 // 2^-44, geluEps
GLOBL vecEps<>(SB), RODATA|NOPTR, $8

// GeLU constants.
DATA geluK<>+0(SB)/8, $0x4330000000000008  // 2^52 + 8
DATA geluK<>+8(SB)/8, $0x3FE0000000000000  // 0.5
DATA geluK<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF // |·| mask
DATA geluK<>+24(SB)/4, $0xC1000000         // -8 (float32)
DATA geluK<>+28(SB)/4, $0x41000000         // 8 (float32)
GLOBL geluK<>(SB), RODATA|NOPTR, $32

// exp constants: the reduction, the clamp and exp(r)'s Taylor
// coefficients 1/k!, k = 0..13.
DATA expK<>+0(SB)/8, $0x3FF71547652B82FE   // log2(e)
DATA expK<>+8(SB)/8, $0x4338000000000000   // 1.5·2^52
DATA expK<>+16(SB)/8, $0x3FE62E42FEFA39EF  // ln2 hi
DATA expK<>+24(SB)/8, $0x3C7ABC9E3B39803F  // ln2 lo = ln2 - hi
DATA expK<>+32(SB)/8, $1023                // exponent bias (int64)
DATA expK<>+40(SB)/8, $0xC05A400000000000  // -105
DATA expK<>+48(SB)/8, $0x4056400000000000  // 89
DATA expK<>+56(SB)/8, $1.0
DATA expK<>+64(SB)/8, $1.0
DATA expK<>+72(SB)/8, $0.5
DATA expK<>+80(SB)/8, $0x3FC5555555555555  // 1/3!
DATA expK<>+88(SB)/8, $0x3FA5555555555555  // 1/4!
DATA expK<>+96(SB)/8, $0x3F81111111111111  // 1/5!
DATA expK<>+104(SB)/8, $0x3F56C16C16C16C17 // 1/6!
DATA expK<>+112(SB)/8, $0x3F2A01A01A01A01A // 1/7!
DATA expK<>+120(SB)/8, $0x3EFA01A01A01A01A // 1/8!
DATA expK<>+128(SB)/8, $0x3EC71DE3A556C734 // 1/9!
DATA expK<>+136(SB)/8, $0x3E927E4FB7789F5C // 1/10!
DATA expK<>+144(SB)/8, $0x3E5AE64567F544E4 // 1/11!
DATA expK<>+152(SB)/8, $0x3E21EED8EFF8D898 // 1/12!
DATA expK<>+160(SB)/8, $0x3DE6124613A86D09 // 1/13!
GLOBL expK<>(SB), RODATA|NOPTR, $168

// LANES: K1 = the lanes of this iteration that lie inside the span (BX
// elements remain), Z0 = those elements (zero elsewhere).
#define LANES \
	VPBROADCASTD BX, Z23; \
	VPCMPD       $1, Z23, Z22, K1; \
	VMOVUPS.Z    (SI), K1, Z0

// WIDEN: Z1 = float64 of lanes 0-7 of Z0, Z2 of lanes 8-15.
#define WIDEN \
	VCVTPS2PD     Y0, Z1; \
	VEXTRACTF64X4 $1, Z0, Y2; \
	VCVTPS2PD     Y2, Z2

// ROUNDTEST rounds an iteration's results: y in Z7 (lanes 0-7) and Z8
// (8-15), the error bounds in ea/eb, kin the lanes that may be kept. It
// leaves float32(y-e) in Z11 and sets K3 = the kin lanes where that equals
// float32(y+e) (an ordered compare: NaN is never kept).
#define ROUNDTEST(ea, eb, kin) \
	VSUBPD       ea, Z7, Z11; \
	VADDPD       ea, Z7, Z7; \
	VSUBPD       eb, Z8, Z12; \
	VADDPD       eb, Z8, Z8; \
	VCVTPD2PS    Z11, Y11; \
	VCVTPD2PS    Z7, Y7; \
	VCVTPD2PS    Z12, Y12; \
	VCVTPD2PS    Z8, Y8; \
	VINSERTF64X4 $1, Y12, Z11, Z11; \
	VINSERTF64X4 $1, Y8, Z7, Z7; \
	VCMPPS       $0, Z7, Z11, kin, K3

// STORE stores Z11 in the K3 lanes, writes the span lanes not stored as the
// iteration's 16 result bits at (R10), and advances to the next 16.
#define STORE \
	VMOVUPS Z11, K3, (DI); \
	KANDNW  K1, K3, K4; \
	KMOVW   K4, (R10); \
	ADDQ    $64, SI; \
	ADDQ    $64, DI; \
	ADDQ    $2, R10; \
	SUBQ    $16, BX

// GELUSETUP loads the GeLU constants; AX holds the coefficient table.
#define GELUSETUP \
	VMOVDQU32    vecIota<>(SB), Z22; \
	VBROADCASTSD geluK<>+0(SB), Z16; \
	VBROADCASTSD geluK<>+8(SB), Z17; \
	VBROADCASTSD vecEps<>(SB), Z18; \
	VPBROADCASTQ geluK<>+16(SB), Z19; \
	VBROADCASTSS geluK<>+24(SB), Z20; \
	VBROADCASTSS geluK<>+28(SB), Z21

// GELUSTEP is one Horner step of both chains: s = s·t + a[k], where a[k]
// of each lane's cell is picked out of the table's row k (16 float64 =
// two registers, off = 128·k) by the cell index.
#define GELUSTEP(off) \
	VMOVUPD     off(AX), Z9; \
	VPERMT2PD   off+64(AX), Z3, Z9; \
	VMOVUPD     off(AX), Z10; \
	VPERMT2PD   off+64(AX), Z4, Z10; \
	VFMADD213PD Z9, Z5, Z7; \
	VFMADD213PD Z10, Z6, Z8

// GELUPOLY evaluates the table's expansion for 16 lanes: K2 = the span
// lanes with -8 <= x < 8 (NaN fails both), Z1/Z2 = x, Z7/Z8 = the
// expansion at x. The cell index floor(x+8) comes from one add rounded
// down: x + (2^52+8) lands in [2^52, 2^52+16), where the float64 spacing
// is 1, so its low mantissa bits are the index VPERMT2PD reads.
#define GELUPOLY \
	LANES; \
	VCMPPS        $0x1d, Z20, Z0, K1, K2; \
	VCMPPS        $0x11, Z21, Z0, K2, K2; \
	WIDEN; \
	VADDPD.RD_SAE Z16, Z1, Z3; \
	VADDPD.RD_SAE Z16, Z2, Z4; \
	VSUBPD        Z16, Z3, Z5; \
	VSUBPD        Z16, Z4, Z6; \
	VADDPD        Z17, Z5, Z5; \
	VADDPD        Z17, Z6, Z6; \
	VSUBPD        Z5, Z1, Z5; \
	VSUBPD        Z6, Z2, Z6; \
	VMOVUPD       2560(AX), Z7; \
	VPERMT2PD     2560+64(AX), Z3, Z7; \
	VMOVUPD       2560(AX), Z8; \
	VPERMT2PD     2560+64(AX), Z4, Z8; \
	GELUSTEP(2432); \
	GELUSTEP(2304); \
	GELUSTEP(2176); \
	GELUSTEP(2048); \
	GELUSTEP(1920); \
	GELUSTEP(1792); \
	GELUSTEP(1664); \
	GELUSTEP(1536); \
	GELUSTEP(1408); \
	GELUSTEP(1280); \
	GELUSTEP(1152); \
	GELUSTEP(1024); \
	GELUSTEP(896); \
	GELUSTEP(768); \
	GELUSTEP(640); \
	GELUSTEP(512); \
	GELUSTEP(384); \
	GELUSTEP(256); \
	GELUSTEP(128); \
	GELUSTEP(0)

// EXPSTEP is one Horner step of both chains with coefficient off(SB).
#define EXPSTEP(off) \
	VBROADCASTSD expK<>+off(SB), Z9; \
	VFMADD213PD  Z9, Z1, Z7; \
	VFMADD213PD  Z9, Z2, Z8

// func geluVec512(dst, x []float32) (fallback uint64)
//
// GELU(x) = x·Φ(x), Φ from geluVecCDF (gelu.go: 16 cells of width 1 on
// [-8, 8), degree 20, coefficient-major), e = 2^-44·|x|.
TEXT ·geluVec512(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	MOVQ $0, fallback+48(FP)
	LEAQ fallback+48(FP), R10
	LEAQ ·geluVecCDF(SB), AX
	GELUSETUP
	TESTQ BX, BX
	JLE   gelufdone

gelufloop:
	GELUPOLY
	VMULPD Z1, Z7, Z7
	VMULPD Z2, Z8, Z8
	VPANDQ Z19, Z1, Z9
	VPANDQ Z19, Z2, Z10
	VMULPD Z18, Z9, Z9
	VMULPD Z18, Z10, Z10
	ROUNDTEST(Z9, Z10, K2)
	STORE
	JGT    gelufloop

gelufdone:
	VZEROUPPER
	RET

// func geluGradVec512(dX, dY, x []float32) (fallback uint64)
//
// dX = dY·GELU'(x): GELU' straight from geluVecGrad, e = 2^-44, and the
// float32 result times dY, one IEEE multiply like the Go body's.
TEXT ·geluGradVec512(SB), NOSPLIT, $0-80
	MOVQ dX_base+0(FP), DI
	MOVQ dY_base+24(FP), R11
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), BX
	MOVQ $0, fallback+72(FP)
	LEAQ fallback+72(FP), R10
	LEAQ ·geluVecGrad(SB), AX
	GELUSETUP
	TESTQ BX, BX
	JLE   gelubdone

gelubloop:
	GELUPOLY
	ROUNDTEST(Z18, Z18, K2)
	VMULPS (R11), Z11, K1, Z11
	ADDQ   $64, R11
	STORE
	JGT    gelubloop

gelubdone:
	VZEROUPPER
	RET

// func expVec512(dst, x []float32, m float32) (fallback uint64)
//
// exp(float64(x - m)), the subtraction in float32 as expScalar does it.
// v is clamped to [-105, 89] (NaN passes through): below -104 the float32
// result is 0 and above 88.8 it is +Inf, and the clamped value rounds to
// the same. Then k = round(v·log2 e) via the 1.5·2^52 shifter,
// r = v - k·ln2 in two FMAs (|r| <= 0.347), exp(r) by its degree-13 Taylor
// polynomial, times 2^k built in the exponent field (k + 1023 stays in
// [871, 1151]); e = 2^-44·y.
TEXT ·expVec512(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	MOVQ $0, fallback+56(FP)
	LEAQ fallback+56(FP), R10
	VMOVDQU32    vecIota<>(SB), Z22
	VBROADCASTSS m+48(FP), Z24
	VBROADCASTSD expK<>+0(SB), Z16
	VBROADCASTSD expK<>+8(SB), Z17
	VBROADCASTSD vecEps<>(SB), Z18
	VBROADCASTSD expK<>+16(SB), Z19
	VBROADCASTSD expK<>+24(SB), Z20
	VPBROADCASTQ expK<>+32(SB), Z21
	VBROADCASTSD expK<>+40(SB), Z25
	VBROADCASTSD expK<>+48(SB), Z26
	TESTQ BX, BX
	JLE   expdone

exploop:
	LANES
	VSUBPS       Z24, Z0, Z0
	WIDEN
	VMAXPD       Z1, Z25, Z1
	VMAXPD       Z2, Z25, Z2
	VMINPD       Z1, Z26, Z1
	VMINPD       Z2, Z26, Z2
	VMOVAPD      Z17, Z3
	VMOVAPD      Z17, Z4
	VFMADD231PD  Z16, Z1, Z3
	VFMADD231PD  Z16, Z2, Z4
	VSUBPD       Z17, Z3, Z5
	VSUBPD       Z17, Z4, Z6
	VFNMADD231PD Z19, Z5, Z1
	VFNMADD231PD Z19, Z6, Z2
	VFNMADD231PD Z20, Z5, Z1
	VFNMADD231PD Z20, Z6, Z2
	VPADDQ       Z21, Z3, Z3
	VPADDQ       Z21, Z4, Z4
	VPSLLQ       $52, Z3, Z3
	VPSLLQ       $52, Z4, Z4
	VBROADCASTSD expK<>+160(SB), Z7
	VMOVAPD      Z7, Z8
	EXPSTEP(152)
	EXPSTEP(144)
	EXPSTEP(136)
	EXPSTEP(128)
	EXPSTEP(120)
	EXPSTEP(112)
	EXPSTEP(104)
	EXPSTEP(96)
	EXPSTEP(88)
	EXPSTEP(80)
	EXPSTEP(72)
	EXPSTEP(64)
	EXPSTEP(56)
	VMULPD       Z3, Z7, Z7
	VMULPD       Z4, Z8, Z8
	VMULPD       Z18, Z7, Z9
	VMULPD       Z18, Z8, Z10
	ROUNDTEST(Z9, Z10, K1)
	STORE
	JGT          exploop

expdone:
	VZEROUPPER
	RET
