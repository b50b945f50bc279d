package kernels

import (
	"fmt"
	"math"
)

// LayerNorm's float sequence is a bitwise contract shared by the stand-alone
// kernels here and the fused GEMM epilogue (gemm_epilogue.go): per row a
// sequential sum, the mean, a sequential sum of squared deviations, then
// y = ((gamma·(x−mean))·invStd)+beta, each operation rounded to float32 on
// its own. The Go bodies spell that rounding out with float32(...) around
// every product that feeds an add, because the Go compiler otherwise fuses
// `a*b + c` into one multiply-add on arm64, ppc64le and s390x, and those
// builds then disagree with amd64 in the last bit (the class of bug lamb.go
// documents). check.sh greps the arm64 listing of this file for fused
// multiply-adds.

// lnStatsRows is how many rows layerNormRows puts through the statistics
// at once: each row keeps its own accumulators and its own sequential sum
// order, so the interleave only breaks the add-latency chain.
const lnStatsRows = 4

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
	lnBodies.run(rows, grainFor(rows, n), lnArgs{y: y, x: x, gamma: gamma, beta: beta, mean: mean, invStd: invStd, rows: rows, n: n, eps: eps}, layerNormRange)
}

// lnArgs are the operands of the LayerNorm kernels' argsPool bodies.
type lnArgs struct {
	y, x, gamma, beta, mean, invStd []float32
	dX, dY, dGamma, dBeta           []float32
	rows, n                         int
	eps                             float32
}

var lnBodies argsPool[lnArgs]

func layerNormRange(a *lnArgs, lo, hi int) {
	layerNormRows(a.y, a.x, nil, a.gamma, a.beta, a.mean, a.invStd, lo, hi, a.n, a.eps)
}

// layerNormRows normalizes rows [lo, hi) of the n-wide matrix x into y (the
// two may alias). When save is non-nil it receives each x row before y is
// written; when mean is non-nil, mean and invStd receive the statistics.
// Shared by LayerNormForward and the fused epilogue's finalize pass, so the
// two are bitwise identical.
func layerNormRows(y, x, save, gamma, beta, mean, invStd []float32, lo, hi, n int, eps float32) {
	var mu, istd [lnStatsRows]float32
	for r0 := lo; r0 < hi; r0 += lnStatsRows {
		rows := min(lnStatsRows, hi-r0)
		if save != nil {
			copy(save[r0*n:(r0+rows)*n], x[r0*n:(r0+rows)*n])
		}
		if rows == lnStatsRows {
			mu, istd = layerNormRowStats4(x[r0*n:(r0+1)*n], x[(r0+1)*n:(r0+2)*n],
				x[(r0+2)*n:(r0+3)*n], x[(r0+3)*n:(r0+4)*n], eps)
		} else {
			for i := range rows {
				r := r0 + i
				mu[i], istd[i] = layerNormRowStats(x[r*n:(r+1)*n], eps)
			}
		}
		for i := range rows {
			r := r0 + i
			if mean != nil {
				mean[r], invStd[r] = mu[i], istd[i]
			}
			layerNormRowApply(y[r*n:(r+1)*n], x[r*n:(r+1)*n], gamma, beta, mu[i], istd[i])
		}
	}
}

// layerNormRowStats computes the mean and inverse standard deviation of
// one row.
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
		sq += float32(d * d)
	}
	return mu, lnInvStd(sq, n, eps)
}

// layerNormRowStats4 is layerNormRowStats on four equal-length rows at
// once, each in its own accumulators and in its own sequential order.
func layerNormRowStats4(x0, x1, x2, x3 []float32, eps float32) (mu, istd [4]float32) {
	n := len(x0)
	x1, x2, x3 = x1[:n], x2[:n], x3[:n]
	var s0, s1, s2, s3 float32
	for j, v := range x0 {
		s0 += v
		s1 += x1[j]
		s2 += x2[j]
		s3 += x3[j]
	}
	fn := float32(n)
	m0, m1, m2, m3 := s0/fn, s1/fn, s2/fn, s3/fn
	var q0, q1, q2, q3 float32
	for j, v := range x0 {
		d0, d1, d2, d3 := v-m0, x1[j]-m1, x2[j]-m2, x3[j]-m3
		q0 += float32(d0 * d0)
		q1 += float32(d1 * d1)
		q2 += float32(d2 * d2)
		q3 += float32(d3 * d3)
	}
	return [4]float32{m0, m1, m2, m3},
		[4]float32{lnInvStd(q0, n, eps), lnInvStd(q1, n, eps), lnInvStd(q2, n, eps), lnInvStd(q3, n, eps)}
}

// lnInvStd is 1/sqrt(sq/n + eps), the square root taken in float64.
func lnInvStd(sq float32, n int, eps float32) float32 {
	return 1 / float32(math.Sqrt(float64(sq/float32(n)+eps)))
}

// layerNormRowApply writes the normalized affine transform of xr into yr.
// yr and xr may alias: each element is read before it is written.
func layerNormRowApply(yr, xr, gamma, beta []float32, mu, istd float32) {
	xr, gamma, beta = xr[:len(yr)], gamma[:len(yr)], beta[:len(yr)]
	if body := activeKernel.lnApply; body != nil {
		n8 := len(yr) &^ 7
		if n8 > 0 {
			body(yr[:n8], xr[:n8], gamma[:n8], beta[:n8], mu, istd)
		}
		yr, xr, gamma, beta = yr[n8:], xr[n8:], gamma[n8:], beta[n8:]
	}
	for i, v := range xr {
		yr[i] = float32(float32(gamma[i]*(v-mu))*istd) + beta[i]
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

	args := lnArgs{x: x, gamma: gamma, mean: mean, invStd: invStd,
		dX: dX, dY: dY, dGamma: dGamma, dBeta: dBeta, rows: rows, n: n}
	// dX: independent per row, parallel over rows.
	lnBodies.run(rows, grainFor(rows, n), args, layerNormGradRows)
	// dGamma/dBeta: column reductions, parallel over columns. The fold is
	// seeded from the existing gradient so splitting the rows across
	// multiple calls (gradient accumulation) matches one call bitwise.
	lnBodies.run(n, grainFor(n, rows), args, layerNormGradCols)
}

func layerNormGradRows(a *lnArgs, lo, hi int) {
	dX, dY, x, gamma, mean, invStd, n := a.dX, a.dY, a.x, a.gamma, a.mean, a.invStd, a.n
	for r := lo; r < hi; r++ {
		xr := x[r*n : (r+1)*n]
		dyr := dY[r*n : (r+1)*n]
		dxr := dX[r*n : (r+1)*n]
		mu, istd := mean[r], invStd[r]

		var sumG, sumGX float32
		for i := range xr {
			xhat := (xr[i] - mu) * istd
			g := float32(dyr[i] * gamma[i])
			sumG += g
			sumGX += float32(g * xhat)
		}
		invN := 1 / float32(n)
		for i := range xr {
			xhat := (xr[i] - mu) * istd
			g := float32(dyr[i] * gamma[i])
			dxr[i] = istd * ((g - float32(invN*sumG)) - float32(float32(xhat*invN)*sumGX))
		}
	}
}

func layerNormGradCols(a *lnArgs, lo, hi int) {
	dGamma, dBeta, dY, x, mean, invStd, rows, n := a.dGamma, a.dBeta, a.dY, a.x, a.mean, a.invStd, a.rows, a.n
	for j := lo; j < hi; j++ {
		dg, db := dGamma[j], dBeta[j]
		for r := 0; r < rows; r++ {
			xhat := (x[r*n+j] - mean[r]) * invStd[r]
			dy := dY[r*n+j]
			dg += float32(dy * xhat)
			db += dy
		}
		dGamma[j], dBeta[j] = dg, db
	}
}

// LayerNormUnfusedKernelCount is the number of separate GPU kernels an
// unfused layer-norm forward launches in the paper's fusion study
// (Fig. 12a): mean reduction, centering, square, variance reduction,
// rsqrt-normalize, gamma multiply, beta add.
const LayerNormUnfusedKernelCount = 7
