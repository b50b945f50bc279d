#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func sgemmKernel6x16(kc int64, a, b *float32, ldb int64, c *float32, ldc int64)
//
// C[0:6][0:16] += Apanel·Bpanel over kc depth steps, computed as a
// continuation fold: the accumulator tile is SEEDED from C before the
// depth loop and plain-stored afterwards, so splitting the depth range
// across multiple kernel invocations yields bitwise-identical results to
// one invocation over the whole range (the gradient-accumulation
// equivalence in internal/audit depends on this).
// a: packed 6-row micro-panel, 6 floats per depth step (alpha pre-folded).
// b: 16-column micro-panel, depth step p at b[p·ldb:p·ldb+16] — a packed
// panel (ldb = 16) or op(B) read in place (ldb = its row length).
// c: row-major, stride ldc floats.
//
// Register plan: Y0-Y11 hold the 6×16 accumulator tile (two 8-lane vectors
// per row), Y12/Y13 the current B vectors, Y14/Y15 broadcast A elements.
// 12 FMAs per depth step; B feeds from L1, A from L2.
//
// Each depth step prefetches the B line it will read 16 steps later
// (R11 = 16·ldb bytes ahead): 1 KiB ahead on a packed panel, 16 operand
// rows ahead when B is read in place. A cold weight otherwise stalls
// every step on its next line. The addresses run up to 16 rows past B's
// end; PREFETCHT0 never faults (TestPrefetchPastBNeverFaults).
TEXT ·sgemmKernel6x16(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ldb+24(FP), R10
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R8
	SHLQ $2, R10                // B depth stride in bytes
	SHLQ $2, R8                 // row stride in bytes
	MOVQ R10, R11
	SHLQ $4, R11                // prefetch distance: 16 depth steps

	// Seed the accumulator tile from C, row by row.
	MOVQ    DI, R9
	VMOVUPS (R9), Y0
	VMOVUPS 32(R9), Y1
	ADDQ    R8, R9
	VMOVUPS (R9), Y2
	VMOVUPS 32(R9), Y3
	ADDQ    R8, R9
	VMOVUPS (R9), Y4
	VMOVUPS 32(R9), Y5
	ADDQ    R8, R9
	VMOVUPS (R9), Y6
	VMOVUPS 32(R9), Y7
	ADDQ    R8, R9
	VMOVUPS (R9), Y8
	VMOVUPS 32(R9), Y9
	ADDQ    R8, R9
	VMOVUPS (R9), Y10
	VMOVUPS 32(R9), Y11

kloop:
	VMOVUPS (DX), Y12
	VMOVUPS 32(DX), Y13
	PREFETCHT0 (DX)(R11*1)
	VBROADCASTSS (SI), Y14
	VBROADCASTSS 4(SI), Y15
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VFMADD231PS Y12, Y15, Y2
	VFMADD231PS Y13, Y15, Y3
	VBROADCASTSS 8(SI), Y14
	VBROADCASTSS 12(SI), Y15
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VFMADD231PS Y12, Y15, Y6
	VFMADD231PS Y13, Y15, Y7
	VBROADCASTSS 16(SI), Y14
	VBROADCASTSS 20(SI), Y15
	VFMADD231PS Y12, Y14, Y8
	VFMADD231PS Y13, Y14, Y9
	VFMADD231PS Y12, Y15, Y10
	VFMADD231PS Y13, Y15, Y11
	ADDQ $24, SI
	ADDQ R10, DX
	DECQ CX
	JNZ  kloop

	// Write the folded tile back to C, row by row (seeded at entry, so
	// plain stores — no read-add here).
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, 32(DI)
	VZEROUPPER
	RET

// func sgemmKernel12x32(kc int64, a, b *float32, ldb int64, c *float32, ldc, rows int64)
//
// The AVX-512F counterpart of sgemmKernel6x16 on the first `rows` (1–12)
// rows of a 12×32 tile: C[0:rows][0:32] += Apanel·Bpanel, the same
// continuation fold (seed from C, one FMA per element per depth step in
// depth order, plain store), so every C element is bitwise what the 6×16
// kernel produces for the same panels, whatever the row count.
// a: packed 12-row micro-panel, 12 floats per depth step (dead rows are
// zero padding the body never reads).
// b: 32-column micro-panel, depth step p at b[p·ldb:p·ldb+32] (ldb = 32
// for a packed panel).
//
// Register plan: Z0-Z23 hold the 12×32 accumulator tile (two 16-lane
// vectors per row), Z24/Z25 the current B vectors, Z26-Z31 rotate through
// the broadcast A elements so six rows' broadcasts are in flight ahead of
// their FMAs. 24 FMAs against 14 loads per depth step on a full tile; B
// feeds from L1 (a 256-deep B micro-panel is 32 KiB), A from L2. Like the
// 6×16 kernel, each step prefetches the two B lines it reads 16 steps
// later (2 KiB ahead on a packed panel); an edge tile's step does a few
// FMAs and would outrun that, so it prefetches 64 steps ahead.
//
// A compare-and-branch ladder on the row count ends the seed, each depth
// step and the store after the last live row: a row-edge tile (a served
// query of 4 tokens, a 128-row stripe's last 8) runs only its live rows'
// FMAs and writes C in place, and C below them is never read or written.
// On a full tile the ladder's eleven untaken branches per step cost
// nothing measurable (BenchmarkMicroKernel, DESIGN.md §7 "Edge rows").
#define SEED12x32(lo, hi) \
	VMOVUPS (R9), lo; \
	VMOVUPS 64(R9), hi; \
	ADDQ    R8, R9

#define PREFETCH12x32 \
	PREFETCHT0 (R9); \
	PREFETCHT0 64(R9); \
	ADDQ       R8, R9

#define ROW12x32(off, bc, lo, hi) \
	VBROADCASTSS off(SI), bc; \
	VFMADD231PS  Z24, bc, lo; \
	VFMADD231PS  Z25, bc, hi

#define STORE12x32(lo, hi) \
	VMOVUPS lo, (DI); \
	VMOVUPS hi, 64(DI); \
	ADDQ    R8, DI

TEXT ·sgemmKernel12x32(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ ldb+24(FP), R10
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R8
	MOVQ rows+48(FP), BX
	SHLQ $2, R10                // B depth stride in bytes
	SHLQ $2, R8                 // row stride in bytes
	MOVQ R10, R11
	SHLQ $4, R11                // prefetch distance: 16 depth steps
	CMPQ BX, $12
	JEQ  seed512
	SHLQ $2, R11                // an edge tile's: 64 depth steps

seed512:

	MOVQ DI, R9
	SEED12x32(Z0, Z1)
	CMPQ BX, $1
	JEQ  kloop512
	SEED12x32(Z2, Z3)
	CMPQ BX, $2
	JEQ  kloop512
	SEED12x32(Z4, Z5)
	CMPQ BX, $3
	JEQ  kloop512
	SEED12x32(Z6, Z7)
	CMPQ BX, $4
	JEQ  kloop512
	SEED12x32(Z8, Z9)
	CMPQ BX, $5
	JEQ  kloop512
	SEED12x32(Z10, Z11)
	CMPQ BX, $6
	JEQ  kloop512
	SEED12x32(Z12, Z13)
	CMPQ BX, $7
	JEQ  kloop512
	SEED12x32(Z14, Z15)
	CMPQ BX, $8
	JEQ  kloop512
	SEED12x32(Z16, Z17)
	CMPQ BX, $9
	JEQ  kloop512
	SEED12x32(Z18, Z19)
	CMPQ BX, $10
	JEQ  kloop512
	SEED12x32(Z20, Z21)
	CMPQ BX, $11
	JEQ  kloop512
	SEED12x32(Z22, Z23)

	// A full tile touches the tile below (the sweep's next call) so its
	// seed loads hit L1: the kernel seeds from C up front, so the current
	// tile's misses cannot hide behind the depth loop, the next one's
	// can. An edge tile is the last of its column and skips this.
	PREFETCH12x32
	PREFETCH12x32
	PREFETCH12x32
	PREFETCH12x32
	PREFETCH12x32
	PREFETCH12x32
	PREFETCH12x32
	PREFETCH12x32
	PREFETCH12x32
	PREFETCH12x32
	PREFETCH12x32
	PREFETCH12x32

kloop512:
	VMOVUPS (DX), Z24
	VMOVUPS 64(DX), Z25
	PREFETCHT0 (DX)(R11*1)
	PREFETCHT0 64(DX)(R11*1)
	ROW12x32(0, Z26, Z0, Z1)
	CMPQ BX, $1
	JEQ  knext512
	ROW12x32(4, Z27, Z2, Z3)
	CMPQ BX, $2
	JEQ  knext512
	ROW12x32(8, Z28, Z4, Z5)
	CMPQ BX, $3
	JEQ  knext512
	ROW12x32(12, Z29, Z6, Z7)
	CMPQ BX, $4
	JEQ  knext512
	ROW12x32(16, Z30, Z8, Z9)
	CMPQ BX, $5
	JEQ  knext512
	ROW12x32(20, Z31, Z10, Z11)
	CMPQ BX, $6
	JEQ  knext512
	ROW12x32(24, Z26, Z12, Z13)
	CMPQ BX, $7
	JEQ  knext512
	ROW12x32(28, Z27, Z14, Z15)
	CMPQ BX, $8
	JEQ  knext512
	ROW12x32(32, Z28, Z16, Z17)
	CMPQ BX, $9
	JEQ  knext512
	ROW12x32(36, Z29, Z18, Z19)
	CMPQ BX, $10
	JEQ  knext512
	ROW12x32(40, Z30, Z20, Z21)
	CMPQ BX, $11
	JEQ  knext512
	ROW12x32(44, Z31, Z22, Z23)

knext512:
	ADDQ $48, SI
	ADDQ R10, DX
	DECQ CX
	JNZ  kloop512

	STORE12x32(Z0, Z1)
	CMPQ BX, $1
	JEQ  done512
	STORE12x32(Z2, Z3)
	CMPQ BX, $2
	JEQ  done512
	STORE12x32(Z4, Z5)
	CMPQ BX, $3
	JEQ  done512
	STORE12x32(Z6, Z7)
	CMPQ BX, $4
	JEQ  done512
	STORE12x32(Z8, Z9)
	CMPQ BX, $5
	JEQ  done512
	STORE12x32(Z10, Z11)
	CMPQ BX, $6
	JEQ  done512
	STORE12x32(Z12, Z13)
	CMPQ BX, $7
	JEQ  done512
	STORE12x32(Z14, Z15)
	CMPQ BX, $8
	JEQ  done512
	STORE12x32(Z16, Z17)
	CMPQ BX, $9
	JEQ  done512
	STORE12x32(Z18, Z19)
	CMPQ BX, $10
	JEQ  done512
	STORE12x32(Z20, Z21)
	CMPQ BX, $11
	JEQ  done512
	STORE12x32(Z22, Z23)

done512:
	VZEROUPPER
	RET

// func packT4asm(dst *float32, stride int64, src *float32, ld, k int64, alpha float32, scale bool)
//
// Transposing pack of a 4-row strip: dst[p·stride + r] = src[r·ld + p]
// for r < 4, p < k, times alpha when scale is set (packA folds alpha in;
// packB passes scale=false so weight bytes are copied, never multiplied).
// Eight columns per step: four row loads, a 4×4 transpose inside each
// 128-bit half (unpack lo/hi singles, then doubles), eight 16-byte
// stores. AVX only, so it serves the AVX2 and the AVX-512 kernel alike;
// the k%8 tail gathers one column at a time. Each step also prefetches
// the same columns of the strip after this one (callers walk strips in
// row order; a prefetch past the matrix is harmless): a strip is four
// short runs the hardware prefetcher has to re-learn every time, and
// this was worth 18 % on a weight pack out of L3.
TEXT ·packT4asm(SB), NOSPLIT, $0-45
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ ld+24(FP), R9
	MOVQ k+32(FP), CX
	VBROADCASTSS alpha+40(FP), Y15
	MOVBLZX scale+44(FP), AX
	SHLQ $2, R8                 // dst column stride in bytes
	SHLQ $2, R9                 // src row stride in bytes
	LEAQ (SI)(R9*2), R10        // row 2
	LEAQ (R8)(R8*2), R11        // 3 dst strides
	LEAQ (SI)(R9*4), R12        // next strip's rows 0 and 2
	LEAQ (R10)(R9*4), R13
	SUBQ $8, CX
	JL   pt4tail

pt4loop:
	PREFETCHT0 (R12)
	PREFETCHT0 (R12)(R9*1)
	PREFETCHT0 (R13)
	PREFETCHT0 (R13)(R9*1)
	ADDQ    $32, R12
	ADDQ    $32, R13
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R9*1), Y1
	VMOVUPS (R10), Y2
	VMOVUPS (R10)(R9*1), Y3
	TESTL   AX, AX
	JZ      pt4plain
	VMULPS  Y15, Y0, Y0
	VMULPS  Y15, Y1, Y1
	VMULPS  Y15, Y2, Y2
	VMULPS  Y15, Y3, Y3

pt4plain:
	VUNPCKLPS Y1, Y0, Y4        // r0c0 r1c0 r0c1 r1c1 | same for c4,c5
	VUNPCKHPS Y1, Y0, Y5        // r0c2 r1c2 r0c3 r1c3 | c6,c7
	VUNPCKLPS Y3, Y2, Y6
	VUNPCKHPS Y3, Y2, Y7
	VUNPCKLPD Y6, Y4, Y8        // column 0 | column 4
	VUNPCKHPD Y6, Y4, Y9        // column 1 | column 5
	VUNPCKLPD Y7, Y5, Y10       // column 2 | column 6
	VUNPCKHPD Y7, Y5, Y11       // column 3 | column 7
	VMOVUPS   X8, (DI)
	VMOVUPS   X9, (DI)(R8*1)
	VMOVUPS   X10, (DI)(R8*2)
	VMOVUPS   X11, (DI)(R11*1)
	LEAQ      (DI)(R8*4), DI
	VEXTRACTF128 $1, Y8, (DI)
	VEXTRACTF128 $1, Y9, (DI)(R8*1)
	VEXTRACTF128 $1, Y10, (DI)(R8*2)
	VEXTRACTF128 $1, Y11, (DI)(R11*1)
	LEAQ      (DI)(R8*4), DI
	ADDQ      $32, SI
	ADDQ      $32, R10
	SUBQ      $8, CX
	JGE       pt4loop

pt4tail:
	ADDQ $8, CX
	JZ   pt4done

pt4col:
	VMOVSS    (SI), X0
	VINSERTPS $0x10, (SI)(R9*1), X0, X0
	VINSERTPS $0x20, (R10), X0, X0
	VINSERTPS $0x30, (R10)(R9*1), X0, X0
	TESTL     AX, AX
	JZ        pt4colplain
	VMULPS    X15, X0, X0

pt4colplain:
	VMOVUPS X0, (DI)
	ADDQ    R8, DI
	ADDQ    $4, SI
	ADDQ    $4, R10
	DECQ    CX
	JNZ     pt4col

pt4done:
	VZEROUPPER
	RET
