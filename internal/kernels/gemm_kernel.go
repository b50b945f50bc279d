package kernels

import (
	"fmt"
	"os"

	"demystbert/internal/obs"
)

// gemmKernel is one micro-kernel backend: the register-tile geometry the
// packs and the tile sweep are built around, the f32 kernel (B read with
// row stride ldb: nr on packed panels, the operand's row length where
// op(B) is read in place), its row-edge body f32Rows (the same fold on
// the tile's first rows only, 1 ≤ rows ≤ mr; nil: edge tiles run the full
// kernel, padded to mr rows), and the
// vectorised transposing pack that goes with it (nil: the portable Go
// loops). kernelTable (one per build, gemm_kernel_*.go) lists the
// backends widest first; init installs the first supported one and tests
// iterate over all of them with forEachKernel.
//
// The LAMB sweeps' lane bodies (lamb.go, reduce.go) ride the same ISA
// decision: lambStage1, subScaled and sumSq8 take whole 8-element groups,
// and nil again means the Go body. So do the transcendental spans
// (gelu.go, softmax.go): gelu, geluGrad (GELU' times dY, GeLUBackward's
// product) and exp take up to 64 elements, store only the lanes whose
// float32 result is certain, and return the mask of the others for the
// reference expression (nil: the Go body). The fused GEMM tails' bodies —
// addRow (dst = a + b) and lnApply (LayerNorm's affine) — and LayerNorm
// backward's lnGradCols (one row's share of the dγ/dβ column folds) and
// lnGradApply (one row of dX from its two sums), and mulRow and scaleRow
// (Mul's and Scale's products) take whole 8-element groups like the LAMB
// ones, with the same nil convention. The dropout
// body fills a mask of a positive multiple of 64 elements as eight
// contiguous sub-streams of the generator (dropout.go).
type gemmKernel struct {
	name        string
	mr, nr      int
	f32         func(kc int, a, b []float32, ldb int, c []float32, ldc int)
	f32Rows     func(kc int, a, b []float32, ldb int, c []float32, ldc, rows int)
	packT4      func(dst *float32, stride int64, src *float32, ld, k int64, alpha float32, scale bool)
	lambStage1  func(g, m, v, w, u []float32, c *lambCoef) (wSq, uSq float64)
	subScaled   func(y, x []float32, a float32)
	sumSq8      func(x []float32) float64
	addRow      func(dst, a, b []float32)
	lnApply     func(y, x, gamma, beta []float32, mu, istd float32)
	lnGradCols  func(dg, db, x, dy []float32, mu, istd float32)
	lnGradApply func(dx, x, dy, gamma []float32, mu, istd, invN, meanG, sumGX float32)
	mulRow      func(dst, a, b []float32)
	scaleRow    func(dst, a []float32, s float32)
	dropout     func(mask []float32, st [8]uint64, thr uint64, keep float32) (end uint64)
	gelu        func(dst, x []float32) (fallback uint64)
	geluGrad    func(dX, dY, x []float32) (fallback uint64)
	exp         func(dst, x []float32, m float32) (fallback uint64)
	supported   bool
}

// scalarKernel is the portable backend: the last entry of every table,
// the permanent state on non-amd64 builds and under DEMYSTBERT_NOSIMD=1,
// and the cross-check oracle for the assembly kernels.
var scalarKernel = gemmKernel{name: "scalar", mr: 4, nr: 4, f32: microKernel4x4, supported: true}

// The installed micro-kernel and its tile geometry. The hot paths read
// these plain variables; only installKernel (init and tests) writes them.
var (
	activeKernel *gemmKernel
	gemmMR       int
	gemmNR       int
)

// microTileMax sizes the edge-tile side buffer: the largest micro-tile in
// the table.
var microTileMax = func() int {
	m := 0
	for _, k := range kernelTable {
		m = max(m, k.mr*k.nr)
	}
	return m
}()

// checkKernel rejects a geometry the blocking cannot carry: row blocks and
// stripes start on gemmMC multiples, so an mr that does not divide gemmMC
// (or a stripe that is not whole row blocks) would hand microTileSweep a
// row origin inside a micro-panel and compute garbage without any panic.
func checkKernel(k *gemmKernel) error {
	if gemmMC%k.mr != 0 || gemmStripe%gemmMC != 0 {
		return fmt.Errorf("kernels: micro-kernel %q: mr=%d must divide gemmMC=%d and gemmMC must divide gemmStripe=%d",
			k.name, k.mr, gemmMC, gemmStripe)
	}
	return nil
}

// pickKernel returns the widest supported entry, or the last (scalar) one
// when SIMD is disabled.
func pickKernel(table []gemmKernel, noSIMD bool) *gemmKernel {
	for i := range table {
		if table[i].supported && !noSIMD {
			return &table[i]
		}
	}
	return &table[len(table)-1]
}

func installKernel(k *gemmKernel) {
	activeKernel, gemmMR, gemmNR = k, k.mr, k.nr
}

func init() {
	for i := range kernelTable {
		if err := checkKernel(&kernelTable[i]); err != nil {
			panic(err)
		}
	}
	k := pickKernel(kernelTable, os.Getenv("DEMYSTBERT_NOSIMD") != "")
	installKernel(k)
	obs.NewGauge(fmt.Sprintf(`kernels_gemm_kernel_info{isa="%s",mr="%d",nr="%d",edge_rows="%s"}`, k.name, k.mr, k.nr, k.edgeRows()),
		"GEMM micro-kernel installed at start-up (constant 1; the labels carry the answer)").Set(1)
}

// edgeRows says how the entry runs a tile of fewer than mr live rows:
// "1-11" (at mr = 12) when its row-edge body folds only those rows,
// "padded" when the full body runs all mr rows on a side buffer.
func (k *gemmKernel) edgeRows() string {
	if k.f32Rows == nil {
		return "padded"
	}
	return fmt.Sprintf("1-%d", k.mr-1)
}

// KernelInfo names the installed GEMM micro-kernel, its register tile and
// how a row-edge tile runs (EdgeRows: "1-11" for a row-edge body at those
// row counts, "padded" for the full tile on a side buffer).
type KernelInfo struct {
	Name     string
	MR, NR   int
	EdgeRows string
}

func (k KernelInfo) String() string {
	return fmt.Sprintf("%s %dx%d (edge rows %s)", k.Name, k.MR, k.NR, k.EdgeRows)
}

// ActiveKernel reports which micro-kernel the GEMM engine runs on: the
// widest one the CPU and OS support, or scalar under DEMYSTBERT_NOSIMD=1.
func ActiveKernel() KernelInfo {
	return KernelInfo{activeKernel.name, gemmMR, gemmNR, activeKernel.edgeRows()}
}
