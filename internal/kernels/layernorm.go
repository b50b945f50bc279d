package kernels

import (
	"fmt"
	"math"
)

// LayerNormForward normalizes each row of the rows×n matrix x to zero mean
// and unit variance, then applies the learned affine transform gamma/beta:
//
//	y = gamma * (x - mean) / sqrt(var + eps) + beta
//
// It stores per-row mean and inverse standard deviation into mean and
// invStd (each of length rows) for reuse by the backward pass, matching
// how DNN frameworks implement LN (Ba et al., the paper's [13]).
func LayerNormForward(y, x, gamma, beta []float32, mean, invStd []float32, rows, n int, eps float32) {
	if len(x) != rows*n || len(y) != rows*n || len(gamma) != n || len(beta) != n || len(mean) != rows || len(invStd) != rows {
		panic(fmt.Sprintf("kernels: LayerNormForward dims rows=%d n=%d", rows, n))
	}
	parallelFor(rows, n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xr := x[r*n : (r+1)*n]
			yr := y[r*n : (r+1)*n]
			mu, istd := layerNormRowStats(xr, eps)
			mean[r] = mu
			invStd[r] = istd
			layerNormRowApply(yr, xr, gamma, beta, mu, istd)
		}
	})
}

// layerNormRowStats computes the mean and inverse standard deviation of
// one row. Shared by LayerNormForward and the fused GEMM epilogue
// (gemm_epilogue.go) so the two paths are bitwise-identical.
func layerNormRowStats(xr []float32, eps float32) (mu, istd float32) {
	n := len(xr)
	var sum float32
	for _, v := range xr {
		sum += v
	}
	mu = sum / float32(n)
	var sq float32
	for _, v := range xr {
		d := v - mu
		sq += d * d
	}
	istd = 1 / float32(math.Sqrt(float64(sq/float32(n)+eps)))
	return mu, istd
}

// layerNormRowApply writes the normalized affine transform of xr into yr.
// yr and xr may alias: each element is read before it is written.
func layerNormRowApply(yr, xr, gamma, beta []float32, mu, istd float32) {
	for i, v := range xr {
		yr[i] = gamma[i]*(v-mu)*istd + beta[i]
	}
}

// LayerNormBackward computes the three layer-norm gradients given the
// saved forward statistics:
//
//	dGamma[j] += sum_r dY[r,j] * xhat[r,j]
//	dBeta[j]  += sum_r dY[r,j]
//	dX[r,i]    = invStd[r]/n * (n*g[i] - sum(g) - xhat[r,i]*sum(g*xhat))
//
// where g = dY*gamma and xhat is the normalized input. dGamma/dBeta are
// accumulated (+=) so multiple calls sum gradients, like every other
// weight-gradient kernel in the engine.
func LayerNormBackward(dX, dGamma, dBeta, dY, x, gamma []float32, mean, invStd []float32, rows, n int) {
	if len(dX) != rows*n || len(dY) != rows*n || len(x) != rows*n ||
		len(gamma) != n || len(dGamma) != n || len(dBeta) != n ||
		len(mean) != rows || len(invStd) != rows {
		panic(fmt.Sprintf("kernels: LayerNormBackward dims rows=%d n=%d", rows, n))
	}

	// dX: independent per row, parallel over rows.
	parallelFor(rows, n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xr := x[r*n : (r+1)*n]
			dyr := dY[r*n : (r+1)*n]
			dxr := dX[r*n : (r+1)*n]
			mu, istd := mean[r], invStd[r]

			var sumG, sumGX float32
			for i := range xr {
				xhat := (xr[i] - mu) * istd
				g := dyr[i] * gamma[i]
				sumG += g
				sumGX += g * xhat
			}
			invN := 1 / float32(n)
			for i := range xr {
				xhat := (xr[i] - mu) * istd
				g := dyr[i] * gamma[i]
				dxr[i] = istd * (g - invN*sumG - xhat*invN*sumGX)
			}
		}
	})

	// dGamma/dBeta: column reductions, parallel over columns. The fold is
	// seeded from the existing gradient so splitting the rows across
	// multiple calls (gradient accumulation) matches one call bitwise.
	parallelFor(n, rows, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			dg, db := dGamma[j], dBeta[j]
			for r := 0; r < rows; r++ {
				xhat := (x[r*n+j] - mean[r]) * invStd[r]
				dy := dY[r*n+j]
				dg += dy * xhat
				db += dy
			}
			dGamma[j], dBeta[j] = dg, db
		}
	})
}

// LayerNormUnfusedKernelCount is the number of separate GPU kernels an
// unfused layer-norm forward launches in the paper's fusion study
// (Fig. 12a): mean reduction, centering, square, variance reduction,
// rsqrt-normalize, gamma multiply, beta add.
const LayerNormUnfusedKernelCount = 7
