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
func (pool *Pool) LayerNormForward(y, x, gamma, beta []float32, mean, invStd []float32, rows, n int, eps float32) {
	if len(x) != rows*n || len(y) != rows*n || len(gamma) != n || len(beta) != n || len(mean) != rows || len(invStd) != rows {
		panic(fmt.Sprintf("kernels: LayerNormForward dims rows=%d n=%d", rows, n))
	}
	lnBodies.run(pool, rows, grainFor(pool, rows, n), lnArgs{y: y, x: x, gamma: gamma, beta: beta, mean: mean, invStd: invStd, rows: rows, n: n, eps: eps}, layerNormRange)
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
	layerNormRows(a.y, a.x, a.gamma, a.beta, a.mean, a.invStd, lo, hi, a.n, a.eps)
}

// layerNormRows normalizes rows [lo, hi) of the n-wide matrix x into y (the
// two may alias). When mean is non-nil, mean and invStd receive the
// statistics.
// Shared by LayerNormForward and the fused epilogue's finalize pass, so the
// two are bitwise identical.
func layerNormRows(y, x, gamma, beta, mean, invStd []float32, lo, hi, n int, eps float32) {
	var mu, istd [lnStatsRows]float32
	for r0 := lo; r0 < hi; r0 += lnStatsRows {
		rows := min(lnStatsRows, hi-r0)
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
func (pool *Pool) LayerNormBackward(dX, dGamma, dBeta, dY, x, gamma []float32, mean, invStd []float32, rows, n int) {
	if len(dX) != rows*n || len(dY) != rows*n || len(x) != rows*n ||
		len(gamma) != n || len(dGamma) != n || len(dBeta) != n ||
		len(mean) != rows || len(invStd) != rows {
		panic(fmt.Sprintf("kernels: LayerNormBackward dims rows=%d n=%d", rows, n))
	}

	args := lnArgs{x: x, gamma: gamma, mean: mean, invStd: invStd,
		dX: dX, dY: dY, dGamma: dGamma, dBeta: dBeta, rows: rows, n: n}
	// dX: independent per row, parallel over rows.
	lnBodies.run(pool, rows, grainFor(pool, rows, n), args, layerNormGradRows)
	// dGamma/dBeta: column reductions, parallel over column bands. Each
	// column's fold is seeded from the existing gradient and runs over the
	// rows in order, so splitting the rows across multiple calls (gradient
	// accumulation) matches one call bitwise.
	grain := colBandGrain(pool, n, rows)
	reserveScratch(concurrentPieces(pool, n, grain), scratchMin)
	lnBodies.run(pool, n, grain, args, layerNormGradCols)
}

// layerNormGradRows computes dX for rows [lo, hi), lnStatsRows rows per
// pass through the two sums, each row in its own accumulators and its own
// sequential order.
func layerNormGradRows(a *lnArgs, lo, hi int) {
	dX, dY, x, gamma, mean, invStd, n := a.dX, a.dY, a.x, a.gamma, a.mean, a.invStd, a.n
	var sumG, sumGX [lnStatsRows]float32
	for r0 := lo; r0 < hi; r0 += lnStatsRows {
		rows := min(lnStatsRows, hi-r0)
		if rows == lnStatsRows {
			sumG, sumGX = lnGradSums4(x[r0*n:(r0+4)*n], dY[r0*n:(r0+4)*n], gamma,
				[4]float32(mean[r0:r0+4]), [4]float32(invStd[r0:r0+4]))
		} else {
			for i := range rows {
				r := r0 + i
				sumG[i], sumGX[i] = lnGradSums(x[r*n:(r+1)*n], dY[r*n:(r+1)*n], gamma, mean[r], invStd[r])
			}
		}
		for i := range rows {
			r := r0 + i
			lnGradRowApply(dX[r*n:(r+1)*n], x[r*n:(r+1)*n], dY[r*n:(r+1)*n], gamma,
				mean[r], invStd[r], sumG[i], sumGX[i])
		}
	}
}

// lnGradSums returns one row's sum(g) and sum(g·xhat), g = dY·gamma.
func lnGradSums(xr, dyr, gamma []float32, mu, istd float32) (sumG, sumGX float32) {
	dyr, gamma = dyr[:len(xr)], gamma[:len(xr)]
	for i, v := range xr {
		xhat := (v - mu) * istd
		g := float32(dyr[i] * gamma[i])
		sumG += g
		sumGX += float32(g * xhat)
	}
	return sumG, sumGX
}

// lnGradSums4 is lnGradSums on four consecutive rows (x4 and dy4 hold
// them back to back) at once, each in its own accumulators.
func lnGradSums4(x4, dy4, gamma []float32, mu, istd [4]float32) (sumG, sumGX [4]float32) {
	n := len(gamma)
	x0, x1, x2, x3 := x4[:n], x4[n:2*n], x4[2*n:3*n], x4[3*n:4*n]
	d0, d1, d2, d3 := dy4[:n], dy4[n:2*n], dy4[2*n:3*n], dy4[3*n:4*n]
	var s0, s1, s2, s3, q0, q1, q2, q3 float32
	for i, gm := range gamma {
		h0, h1 := (x0[i]-mu[0])*istd[0], (x1[i]-mu[1])*istd[1]
		h2, h3 := (x2[i]-mu[2])*istd[2], (x3[i]-mu[3])*istd[3]
		g0, g1 := float32(d0[i]*gm), float32(d1[i]*gm)
		g2, g3 := float32(d2[i]*gm), float32(d3[i]*gm)
		s0 += g0
		s1 += g1
		s2 += g2
		s3 += g3
		q0 += float32(g0 * h0)
		q1 += float32(g1 * h1)
		q2 += float32(g2 * h2)
		q3 += float32(g3 * h3)
	}
	return [4]float32{s0, s1, s2, s3}, [4]float32{q0, q1, q2, q3}
}

// lnGradRowApply writes one row of dX from the row's two sums, through
// the kernel table's vector body (whole 8-element groups) with the tail in
// Go.
func lnGradRowApply(dxr, xr, dyr, gamma []float32, mu, istd, sumG, sumGX float32) {
	xr, dyr, gamma = xr[:len(dxr)], dyr[:len(dxr)], gamma[:len(dxr)]
	invN := 1 / float32(len(dxr))
	meanG := float32(invN * sumG)
	if body := activeKernel.lnGradApply; body != nil {
		n8 := len(dxr) &^ 7
		if n8 > 0 {
			body(dxr[:n8], xr[:n8], dyr[:n8], gamma[:n8], mu, istd, invN, meanG, sumGX)
		}
		dxr, xr, dyr, gamma = dxr[n8:], xr[n8:], dyr[n8:], gamma[n8:]
	}
	for i, v := range xr {
		xhat := (v - mu) * istd
		g := float32(dyr[i] * gamma[i])
		dxr[i] = istd * ((g - meanG) - float32(float32(xhat*invN)*sumGX))
	}
}

// layerNormGradCols adds columns [lo, hi) of dγ and dβ, in bands of up to
// scratchMin/2 columns, the rows swept in order. The two accumulators
// share one scratch buffer, as in BiasGrad.
func layerNormGradCols(a *lnArgs, lo, hi int) {
	const band = scratchMin / 2
	acc := getScratch(scratchMin)
	defer putScratch(acc)
	dg, db := (*acc)[:band], (*acc)[band:]
	dGamma, dBeta, dY, x, mean, invStd, rows, n := a.dGamma, a.dBeta, a.dY, a.x, a.mean, a.invStd, a.rows, a.n
	for j0 := lo; j0 < hi; j0 += band {
		w := min(band, hi-j0)
		g, b := dg[:w], db[:w]
		copy(g, dGamma[j0:j0+w])
		copy(b, dBeta[j0:j0+w])
		for r := 0; r < rows; r++ {
			lnGradColsRow(g, b, x[r*n+j0:r*n+j0+w], dY[r*n+j0:r*n+j0+w], mean[r], invStd[r])
		}
		copy(dGamma[j0:j0+w], g)
		copy(dBeta[j0:j0+w], b)
	}
}

// lnGradColsRow adds one row's share to a band of dγ and dβ through the
// kernel table's vector body (whole 8-element groups), the tail in Go.
func lnGradColsRow(dg, db, x, dy []float32, mu, istd float32) {
	db, x, dy = db[:len(dg)], x[:len(dg)], dy[:len(dg)]
	if body := activeKernel.lnGradCols; body != nil {
		n8 := len(dg) &^ 7
		if n8 > 0 {
			body(dg[:n8], db[:n8], x[:n8], dy[:n8], mu, istd)
		}
		dg, db, x, dy = dg[n8:], db[n8:], x[n8:], dy[n8:]
	}
	for i, v := range x {
		xhat := (v - mu) * istd
		d := dy[i]
		dg[i] += float32(d * xhat)
		db[i] += d
	}
}
