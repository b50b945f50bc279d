//go:build amd64

package kernels

import "fmt"

// Assembly micro-kernel bindings (gemm_kernel_amd64.s), the CPU feature
// probe, and the kernel table built from them.

//go:noescape
func sgemmKernel12x32(kc int64, a, b *float32, ldb int64, c *float32, ldc, rows int64)

//go:noescape
func sgemmKernel6x16(kc int64, a, b *float32, ldb int64, c *float32, ldc int64)

//go:noescape
func packT4asm(dst *float32, stride int64, src *float32, ld, k int64, alpha float32, scale bool)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// microKernel12x32, microKernelRows12x32 and microKernel6x16 adapt the
// assembly kernels to the generic micro-kernel signatures: C[0:mr][0:nr]
// (C[0:rows][0:nr] for the row-edge body) += Apanel·Bpanel. The avx512
// full tile is the row-edge body at 12 rows. Each wrapper checks the
// slices against what its body reads and writes first, so a short operand
// panics here instead of letting the assembly run past it.
func microKernel12x32(kc int, a, b []float32, ldb int, c []float32, ldc int) {
	microKernelRows12x32(kc, a, b, ldb, c, ldc, 12)
}

func microKernelRows12x32(kc int, a, b []float32, ldb int, c []float32, ldc, rows int) {
	checkMicroArgs(kc, 12, 32, rows, a, b, ldb, c, ldc)
	sgemmKernel12x32(int64(kc), &a[0], &b[0], int64(ldb), &c[0], int64(ldc), int64(rows))
}

func microKernel6x16(kc int, a, b []float32, ldb int, c []float32, ldc int) {
	checkMicroArgs(kc, 6, 16, 6, a, b, ldb, c, ldc)
	sgemmKernel6x16(int64(kc), &a[0], &b[0], int64(ldb), &c[0], int64(ldc))
}

// checkMicroArgs panics unless an mr×nr body may run kc ≥ 1 depth steps
// on rows of C: a holds kc packed steps of mr floats, b kc steps of nr
// floats at stride ldb, and c rows of nr floats at stride ldc, with
// 1 ≤ rows ≤ mr.
func checkMicroArgs(kc, mr, nr, rows int, a, b []float32, ldb int, c []float32, ldc int) {
	if kc < 1 || rows < 1 || rows > mr {
		panic(fmt.Sprintf("kernels: micro-kernel %dx%d called with kc=%d rows=%d", mr, nr, kc, rows))
	}
	_ = a[mr*kc-1]
	_ = b[(kc-1)*ldb+nr-1]
	_ = c[(rows-1)*ldc+nr-1]
}

// cpuRegs is what the feature decision reads: the highest basic CPUID
// leaf, CPUID.1:ECX, CPUID.7.0:EBX, and XCR0 (zero when OSXSAVE is clear
// and XGETBV may not be executed).
type cpuRegs struct{ maxLeaf, leaf1ECX, leaf7EBX, xcr0 uint32 }

func readCPU() cpuRegs {
	var r cpuRegs
	r.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, r.leaf1ECX, _ = cpuid(1, 0)
	if r.maxLeaf >= 7 {
		_, r.leaf7EBX, _, _ = cpuid(7, 0)
	}
	if r.leaf1ECX&cpuOSXSAVE != 0 {
		r.xcr0, _ = xgetbv()
	}
	return r
}

const (
	cpuFMA      = 1 << 12 // CPUID.1:ECX
	cpuOSXSAVE  = 1 << 27 // CPUID.1:ECX
	cpuAVX2     = 1 << 5  // CPUID.7.0:EBX
	cpuAVX512F  = 1 << 16 // CPUID.7.0:EBX
	cpuAVX512DQ = 1 << 17 // CPUID.7.0:EBX
	cpuAVX512VL = 1 << 31 // CPUID.7.0:EBX
	xcr0YMM     = 0x06    // XMM and YMM state enabled
	xcr0ZMM     = 0xE6    // plus opmask, ZMM0-15 upper halves, ZMM16-31
)

// cpuFeatures decides which assembly kernels may run: the CPU must
// implement the instructions and the OS must save the registers they use
// (an AVX-512 CPU under an OS that leaves ZMM state disabled gets AVX2).
// The avx512 entry asks for F, DQ and VL together, the subset every
// AVX-512 part since Skylake-SP has: a part with F alone (Knights
// Landing/Mill) takes the avx2 entry rather than trust that no body strays
// past F.
func cpuFeatures(r cpuRegs) (avx2fma, avx512 bool) {
	if r.maxLeaf < 7 || r.leaf1ECX&cpuFMA == 0 || r.leaf1ECX&cpuOSXSAVE == 0 {
		return false, false
	}
	const avx512Bits = cpuAVX512F | cpuAVX512DQ | cpuAVX512VL
	avx2fma = r.leaf7EBX&cpuAVX2 != 0 && r.xcr0&xcr0YMM == xcr0YMM
	avx512 = avx2fma && r.leaf7EBX&avx512Bits == avx512Bits && r.xcr0&xcr0ZMM == xcr0ZMM
	return avx2fma, avx512
}

var kernelTable = func() []gemmKernel {
	avx2fma, avx512ok := cpuFeatures(readCPU())
	avx512 := gemmKernel{name: "avx512", mr: 12, nr: 32, f32: microKernel12x32, f32Rows: microKernelRows12x32, supported: avx512ok,
		gelu: geluVec512, geluGrad: geluGradVec512, exp: expVec512, dropout: dropoutFillSIMD}
	avx2 := gemmKernel{name: "avx2", mr: 6, nr: 16, f32: microKernel6x16, supported: avx2fma}
	// Everything else is 256-bit code the two share.
	for _, k := range []*gemmKernel{&avx512, &avx2} {
		k.packT4 = packT4asm
		k.lambStage1, k.subScaled, k.sumSq8 = lambStage1SIMD, subScaledSIMD, sumSq8SIMD
		k.addRow, k.lnApply = addRowSIMD, lnApplySIMD
		k.lnGradCols, k.lnGradApply = lnGradColsSIMD, lnGradApplySIMD
		k.mulRow, k.scaleRow = mulRowSIMD, scaleRowSIMD
	}
	return []gemmKernel{avx512, avx2, scalarKernel}
}()
