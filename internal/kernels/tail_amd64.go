//go:build amd64

package kernels

// Bindings for the 256-bit bodies of the fused GEMM tails (tail_amd64.s):
// the row add behind Add and every bias and residual add, and LayerNorm's
// affine; LayerNorm backward's row bodies (a row's share of the dγ/dβ
// folds, a row of dX); and the products behind Mul and Scale. Each takes a
// whole number of 8-element groups; sumRow, layerNormRowApply,
// lnGradColsRow, lnGradRowApply, mulRow and scaleRow finish the tails in
// Go. Both SIMD entries of the kernel
// table carry them: the tails stream cache-hot rows, and 256 bits already
// keep up with the loads.

//go:noescape
func addRowAVX2(n int64, dst, a, b *float32)

//go:noescape
func lnApplyAVX2(n int64, y, x, gamma, beta *float32, mu, istd float32)

func addRowSIMD(dst, a, b []float32) {
	n := len(dst)
	_, _ = a[n-1], b[n-1]
	addRowAVX2(int64(n), &dst[0], &a[0], &b[0])
}

func lnApplySIMD(y, x, gamma, beta []float32, mu, istd float32) {
	n := len(y)
	_, _, _ = x[n-1], gamma[n-1], beta[n-1]
	lnApplyAVX2(int64(n), &y[0], &x[0], &gamma[0], &beta[0], mu, istd)
}

//go:noescape
func lnGradColsAVX2(n int64, dg, db, x, dy *float32, mu, istd float32)

func lnGradColsSIMD(dg, db, x, dy []float32, mu, istd float32) {
	n := len(dg)
	_, _, _ = db[n-1], x[n-1], dy[n-1]
	lnGradColsAVX2(int64(n), &dg[0], &db[0], &x[0], &dy[0], mu, istd)
}

//go:noescape
func lnGradApplyAVX2(n int64, dx, x, dy, gamma *float32, mu, istd, invN, meanG, sumGX float32)

func lnGradApplySIMD(dx, x, dy, gamma []float32, mu, istd, invN, meanG, sumGX float32) {
	n := len(dx)
	_, _, _ = x[n-1], dy[n-1], gamma[n-1]
	lnGradApplyAVX2(int64(n), &dx[0], &x[0], &dy[0], &gamma[0], mu, istd, invN, meanG, sumGX)
}

//go:noescape
func mulRowAVX2(n int64, dst, a, b *float32)

//go:noescape
func scaleRowAVX2(n int64, dst, a *float32, s float32)

func mulRowSIMD(dst, a, b []float32) {
	n := len(dst)
	_, _ = a[n-1], b[n-1]
	mulRowAVX2(int64(n), &dst[0], &a[0], &b[0])
}

func scaleRowSIMD(dst, a []float32, s float32) {
	_ = a[len(dst)-1]
	scaleRowAVX2(int64(len(dst)), &dst[0], &a[0], s)
}
