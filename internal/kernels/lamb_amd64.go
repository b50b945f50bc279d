//go:build amd64

package kernels

// Bindings for the 256-bit LAMB bodies (lamb_amd64.s). Each takes a whole
// number of 8-element groups; the callers in lamb.go and reduce.go finish
// ragged tails in Go. Both SIMD entries of the kernel table carry them:
// stage 1 is bound by the divider and by memory bandwidth, the other two
// by bandwidth alone, and 256 bits already saturate both.

//go:noescape
func lambStage1AVX2(n int64, grad, mom, vel, wt, upd *float32, coef *lambCoef, sums *[2]float64)

//go:noescape
func subScaledAVX2(n int64, y, x *float32, a float32)

//go:noescape
func sumSquaresAVX2(n int64, x *float32) float64

func lambStage1SIMD(g, m, v, w, u []float32, c *lambCoef) (wSq, uSq float64) {
	n := len(g)
	_, _, _, _ = m[n-1], v[n-1], w[n-1], u[n-1]
	var sums [2]float64
	lambStage1AVX2(int64(n), &g[0], &m[0], &v[0], &w[0], &u[0], c, &sums)
	return sums[0], sums[1]
}

func subScaledSIMD(y, x []float32, a float32) {
	_ = x[len(y)-1]
	subScaledAVX2(int64(len(y)), &y[0], &x[0], a)
}

func sumSq8SIMD(x []float32) float64 {
	return sumSquaresAVX2(int64(len(x)), &x[0])
}
