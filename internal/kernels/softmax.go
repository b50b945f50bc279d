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
func Softmax(dst, x []float32, rows, n int) {
	if len(x) != rows*n || len(dst) != rows*n {
		panic(fmt.Sprintf("kernels: Softmax dims x=%d dst=%d rows=%d n=%d", len(x), len(dst), rows, n))
	}
	rowBodies.run(rows, grainFor(rows, n), rowArgs{dst: dst, x: x, n: n}, softmaxRange)
}

func softmaxRange(ra *rowArgs, lo, hi int) {
	dst, x, n := ra.dst, ra.x, ra.n
	for r := lo; r < hi; r++ {
		softmaxRow(dst[r*n:(r+1)*n], x[r*n:(r+1)*n])
	}
}

// SoftmaxGrad computes the input gradient of a row-wise softmax given the
// softmax output y and upstream gradient dY:
//
//	dX[i] = y[i] * (dY[i] - sum_j dY[j]*y[j])
func SoftmaxGrad(dX, dY, y []float32, rows, n int) {
	if len(dX) != rows*n || len(dY) != rows*n || len(y) != rows*n {
		panic("kernels: SoftmaxGrad dims mismatch")
	}
	rowBodies.run(rows, grainFor(rows, n), rowArgs{dst: dX, x: dY, y: y, n: n}, softmaxGradRange)
}

func softmaxGradRange(ra *rowArgs, lo, hi int) {
	dX, dY, y, n := ra.dst, ra.x, ra.y, ra.n
	for r := lo; r < hi; r++ {
		yr := y[r*n : (r+1)*n]
		dyr := dY[r*n : (r+1)*n]
		dxr := dX[r*n : (r+1)*n]
		var dotv float32
		for i := range yr {
			dotv += dyr[i] * yr[i]
		}
		for i := range yr {
			dxr[i] = yr[i] * (dyr[i] - dotv)
		}
	}
}
