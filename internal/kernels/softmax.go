package kernels

import (
	"fmt"
	"math"
)

// softmaxRow writes softmax(in) to out using the numerically stable
// max-shift formulation. in and out may alias.
func softmaxRow(out, in []float32) {
	maxV := in[0]
	for _, v := range in[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float32
	for i, v := range in {
		e := float32(math.Exp(float64(v - maxV)))
		out[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
}

// Softmax applies a row-wise softmax to a rows×n matrix.
func Softmax(dst, x []float32, rows, n int) {
	if len(x) != rows*n || len(dst) != rows*n {
		panic(fmt.Sprintf("kernels: Softmax dims x=%d dst=%d rows=%d n=%d", len(x), len(dst), rows, n))
	}
	parallelFor(rows, n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			softmaxRow(dst[r*n:(r+1)*n], x[r*n:(r+1)*n])
		}
	})
}

// SoftmaxGrad computes the input gradient of a row-wise softmax given the
// softmax output y and upstream gradient dY:
//
//	dX[i] = y[i] * (dY[i] - sum_j dY[j]*y[j])
func SoftmaxGrad(dX, dY, y []float32, rows, n int) {
	if len(dX) != rows*n || len(dY) != rows*n || len(y) != rows*n {
		panic("kernels: SoftmaxGrad dims mismatch")
	}
	parallelFor(rows, n, func(lo, hi int) {
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
	})
}
