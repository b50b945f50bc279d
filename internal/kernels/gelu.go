package kernels

import "math"

// GeLUForward applies the exact Gaussian Error Linear Unit (paper Eq. 1):
//
//	GELU(x) = x * 0.5 * (1 + erf(x / sqrt(2)))
//
// element-wise. dst and x may alias only if the backward pass will not
// need the original input (the engine keeps x).
func GeLUForward(dst, x []float32) {
	checkSameLen("GeLUForward", dst, x)
	parallelFor(len(x), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = geluScalar(x[i])
		}
	})
}

// geluScalar is the shared scalar GELU used by both the stand-alone
// GeLUForward pass and the fused GEMM epilogue (gemm_epilogue.go). Keeping
// the exact same float64 expression in one place is what makes the fused
// and unfused paths bitwise-identical.
func geluScalar(x float32) float32 {
	v := float64(x)
	return float32(v * 0.5 * (1 + math.Erf(v/math.Sqrt2)))
}

// GeLUBackward computes dX = dY * GELU'(x) with the exact derivative
//
//	GELU'(x) = 0.5*(1 + erf(x/sqrt(2))) + x * phi(x)
//
// where phi is the standard normal density.
func GeLUBackward(dX, dY, x []float32) {
	checkSameLen("GeLUBackward", dX, dY, x)
	const invSqrt2Pi = 0.3989422804014327
	parallelFor(len(x), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := float64(x[i])
			cdf := 0.5 * (1 + math.Erf(v/math.Sqrt2))
			pdf := invSqrt2Pi * math.Exp(-0.5*v*v)
			dX[i] = dY[i] * float32(cdf+v*pdf)
		}
	})
}

// GeLUUnfusedKernelCount is the kernel count of an unfused GeLU forward:
// scale (x/sqrt2), erf, add-one, halve, multiply-by-x (Section 3.2.3 lists
// the EW add, multiply, divide and ERF steps).
const GeLUUnfusedKernelCount = 5
