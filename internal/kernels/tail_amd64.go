//go:build amd64

package kernels

// Bindings for the 256-bit bodies of the fused GEMM tails (tail_amd64.s):
// the row add behind every bias and residual add, and LayerNorm's affine.
// Each takes a whole number of 8-element groups; addRow and
// layerNormRowApply finish the tails in Go. Both SIMD entries of the kernel
// table carry them: the tails stream cache-hot rows, and 256 bits already
// keep up with the loads.

//go:noescape
func addRowAVX2(n int64, y, x *float32)

//go:noescape
func lnApplyAVX2(n int64, y, x, gamma, beta *float32, mu, istd float32)

func addRowSIMD(y, x []float32) {
	_ = x[len(y)-1]
	addRowAVX2(int64(len(y)), &y[0], &x[0])
}

func lnApplySIMD(y, x, gamma, beta []float32, mu, istd float32) {
	n := len(y)
	_, _, _ = x[n-1], gamma[n-1], beta[n-1]
	lnApplyAVX2(int64(n), &y[0], &x[0], &gamma[0], &beta[0], mu, istd)
}
