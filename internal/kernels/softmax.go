package kernels

import (
	"fmt"
	"math"
)

// softmaxRow writes softmax(in) to out using the numerically stable
// max-shift formulation. in and out may alias. The sum is one float32
// fold in index order, whichever body computed the exponentials.
func softmaxRow(out, in []float32) {
	maxV := in[0]
	for _, v := range in[1:] {
		if v > maxV {
			maxV = v
		}
	}
	expSpan(out, in, maxV)
	var sum float32
	for _, e := range out {
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
}

// expScalar is the definition of softmax's exponential: the max shift in
// float32, then math.Exp in float64, rounded once.
func expScalar(x, m float32) float32 {
	return float32(math.Exp(float64(x - m)))
}

// expSpan sets dst[i] = expScalar(x[i], m), bit for bit; dst may be x
// itself. A vector body on the kernel table evaluates exp in float64 and
// keeps a lane only when its rounding to float32 is certain (gelu.go's
// argument; DESIGN.md "Vector bodies"); the rest take expScalar. Returns
// the number of those; the Go body (expScalar itself) has none.
func expSpan(dst, x []float32, m float32) (fallbacks int) {
	body := activeKernel.exp
	if body == nil {
		expGo(dst, x, m)
		return 0
	}
	return vecSpan(dst, x,
		func(dst, x []float32) uint64 { return body(dst, x, m) },
		func(v float32) float32 { return expScalar(v, m) })
}

func expGo(dst, x []float32, m float32) {
	for i, v := range x {
		dst[i] = expScalar(v, m)
	}
}

// Softmax applies a row-wise softmax to a rows×n matrix.
func (pool *Pool) Softmax(dst, x []float32, rows, n int) {
	if len(x) != rows*n || len(dst) != rows*n {
		panic(fmt.Sprintf("kernels: Softmax dims x=%d dst=%d rows=%d n=%d", len(x), len(dst), rows, n))
	}
	rowBodies.run(pool, rows, grainFor(pool, rows, n), rowArgs{dst: dst, x: x, n: n}, softmaxRange)
}

func softmaxRange(ra *rowArgs, lo, hi int) {
	dst, x, n := ra.dst, ra.x, ra.n
	for r := lo; r < hi; r++ {
		softmaxRow(dst[r*n:(r+1)*n], x[r*n:(r+1)*n])
	}
}

// softmaxGradRows computes the input gradient of a row-wise softmax over
// rows [lo, hi) of n-wide matrices, given the softmax output y and the
// upstream gradient dY (dX may be dY):
//
//	dX[i] = y[i] * (dY[i] - sum_j dY[j]*y[j])
//
// four rows per pass through the dot products, each row in its own
// accumulator and its own sequential order. The product is rounded before
// it is added, so arm64 does not fuse the two (check.sh greps the listing).
func softmaxGradRows(dX, dY, y []float32, lo, hi, n int) {
	var dot [4]float32
	for r0 := lo; r0 < hi; r0 += len(dot) {
		rows := min(len(dot), hi-r0)
		if rows == len(dot) {
			dot = softmaxGradDot4(dY[r0*n:(r0+4)*n], y[r0*n:(r0+4)*n], n)
		} else {
			for i := range rows {
				r := r0 + i
				dot[i] = softmaxGradDot(dY[r*n:(r+1)*n], y[r*n:(r+1)*n])
			}
		}
		for i := range rows {
			r := r0 + i
			yr := y[r*n : (r+1)*n]
			dyr := dY[r*n : (r+1)*n]
			dxr := dX[r*n : (r+1)*n]
			for k := range yr {
				dxr[k] = yr[k] * (dyr[k] - dot[i])
			}
		}
	}
}

// softmaxGradDot returns sum_j dy[j]*y[j], folded in index order.
func softmaxGradDot(dyr, yr []float32) (dot float32) {
	yr = yr[:len(dyr)]
	for i, v := range dyr {
		dot += float32(v * yr[i])
	}
	return dot
}

// softmaxGradDot4 is softmaxGradDot on four consecutive n-wide rows at
// once, each in its own accumulator.
func softmaxGradDot4(dy4, y4 []float32, n int) [4]float32 {
	d0, d1, d2, d3 := dy4[:n], dy4[n:2*n], dy4[2*n:3*n], dy4[3*n:4*n]
	y0, y1, y2, y3 := y4[:n], y4[n:2*n], y4[2*n:3*n], y4[3*n:4*n]
	var s0, s1, s2, s3 float32
	for i, v := range d0 {
		s0 += float32(v * y0[i])
		s1 += float32(d1[i] * y1[i])
		s2 += float32(d2[i] * y2[i])
		s3 += float32(d3[i] * y3[i])
	}
	return [4]float32{s0, s1, s2, s3}
}
