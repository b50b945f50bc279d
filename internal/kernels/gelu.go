package kernels

import (
	"math"
	"math/bits"
)

// GeLUForward applies the exact Gaussian Error Linear Unit (paper Eq. 1):
//
//	GELU(x) = x * 0.5 * (1 + erf(x / sqrt(2)))
//
// element-wise. dst and x may alias only if the backward pass will not
// need the original input (the engine keeps x).
func (pool *Pool) GeLUForward(dst, x []float32) {
	checkSameLen("GeLUForward", dst, x)
	ewBodies.run(pool, len(x), grainFor(pool, len(x), 1), ewArgs{dst: dst, a: x}, geluFwdRange)
}

func geluFwdRange(e *ewArgs, lo, hi int) { geluSpan(e.dst[lo:hi], e.a[lo:hi]) }

// GeLUBackward computes dX = dY * GELU'(x) with the exact derivative
//
//	GELU'(x) = 0.5*(1 + erf(x/sqrt(2))) + x * phi(x)
//
// where phi is the standard normal density.
func (pool *Pool) GeLUBackward(dX, dY, x []float32) {
	checkSameLen("GeLUBackward", dX, dY, x)
	ewBodies.run(pool, len(x), grainFor(pool, len(x), 1), ewArgs{dst: dX, a: dY, b: x}, geluBwdRange)
}

func geluBwdRange(e *ewArgs, lo, hi int) { geluGradSpan(e.dst[lo:hi], e.a[lo:hi], e.b[lo:hi]) }

// geluScalar and geluGradScalar are the definitions of GELU and GELU' in
// this engine: the float64 expressions every result must equal bit for
// bit. The span kernels below return exactly these values and call them
// for the few inputs their fast path cannot settle; the tests use them as
// the oracle.
func geluScalar(x float32) float32 {
	v := float64(x)
	return float32(v * 0.5 * (1 + math.Erf(v/math.Sqrt2)))
}

func geluGradScalar(x float32) float32 {
	v := float64(x)
	cdf := 0.5 * (1 + math.Erf(v/math.Sqrt2))
	pdf := invSqrt2Pi * math.Exp(-0.5*v*v)
	return float32(cdf + v*pdf)
}

const invSqrt2Pi = 0.3989422804014327

// Exact-rounding fast path (DESIGN.md "Exact-rounding GeLU"). Φ(x) and
// GELU'(x) are evaluated in float64 as degree-geluDegree Taylor expansions
// about the centres of geluCells intervals of width 1/8 covering
// [-geluRange, geluRange). The value y so obtained is within geluEps
// (scaled by |x| for GELU = x·Φ) of what the reference expression computes
// in float64, so the reference lies in [y-e, y+e]; rounding to float32 is
// monotone, so when both ends round to the same float32 the reference
// rounds to it too. Otherwise — a few inputs per hundred thousand — and
// outside the range or on NaN, the reference expression itself runs.
const (
	geluRange  = 6.0
	geluCells  = 96
	geluDegree = 10
	geluEps    = 1.0 / (1 << 44)
	// geluBlock is the staging length: a span is converted to float64,
	// evaluated and rounded in three separate loops over at most this
	// many elements. In a single per-element loop the float32<->float64
	// conversions (CVTSS2SD/CVTSD2SS merge into their destination
	// register) pick up a false dependency on the polynomial chain of the
	// previous element whenever the register allocator reuses its
	// register: 3x slower, or not, depending on unrelated edits nearby.
	geluBlock = 64
)

// geluCell is one interval's expansion: its centre c and the Taylor
// coefficients f⁽ᵏ⁾(c)/k!, k = 0..geluDegree.
type geluCell struct {
	c float64
	a [geluDegree + 1]float64
}

// geluCDF expands Φ, geluGrad expands GELU' = Φ + xφ.
var geluCDF, geluGrad = geluTables()

// geluExpand writes the Taylor coefficients f⁽ᵏ⁾(c)/k! of Φ into cdf and
// of GELU' into grad, k = 0..len(cdf)-1, from the Hermite recurrence
// φ⁽ᵏ⁾(c) = (-1)ᵏ Heₖ(c) φ(c), He₍ₖ₊₁₎ = c·Heₖ - k·He₍ₖ₋₁₎:
//
//	Φ⁽ᵏ⁾     = φ⁽ᵏ⁻¹⁾
//	GELU'⁽ᵏ⁾ = (k+1)·φ⁽ᵏ⁻¹⁾ + c·φ⁽ᵏ⁾    (Leibniz on x·φ)
//
// for k >= 1, seeded by Φ(c) and φ(c) from the math package.
func geluExpand(c float64, cdf, grad []float64) {
	phi := invSqrt2Pi * math.Exp(-0.5*c*c)
	d := make([]float64, len(cdf)) // d[k] = φ⁽ᵏ⁾(c)
	hePrev, he, sign := 0.0, 1.0, 1.0
	for k := range d {
		d[k] = sign * he * phi
		hePrev, he, sign = he, c*he-float64(k)*hePrev, -sign
	}
	cdf[0] = 0.5 * math.Erfc(-c/math.Sqrt2)
	grad[0] = cdf[0] + c*phi
	fact := 1.0
	for k := 1; k < len(cdf); k++ {
		fact *= float64(k)
		cdf[k] = d[k-1] / fact
		grad[k] = (float64(k+1)*d[k-1] + c*d[k]) / fact
	}
}

// geluTables fills the Go body's tables: 96 cells of width 1/8, cell-major.
func geluTables() (cdf, grad *[geluCells]geluCell) {
	cdf, grad = new([geluCells]geluCell), new([geluCells]geluCell)
	for i := range cdf {
		c := -geluRange + (float64(i)+0.5)/8
		cdf[i].c, grad[i].c = c, c
		geluExpand(c, cdf[i].a[:], grad[i].a[:])
	}
	return cdf, grad
}

// The AVX-512 bodies (transcend_amd64.s, DESIGN.md "Vector bodies") use
// their own tables: geluVecCells cells of width 1 covering
// [-geluVecRange, geluVecRange), degree geluVecDegree, stored
// coefficient-major so that one coefficient of every cell is two 512-bit
// rows a single VPERMT2PD selects from.
const (
	geluVecRange  = 8
	geluVecCells  = 2 * geluVecRange
	geluVecDegree = 20
)

var geluVecCDF, geluVecGrad = geluVecTables()

func geluVecTables() (cdf, grad [geluVecDegree + 1][geluVecCells]float64) {
	var a, b [geluVecDegree + 1]float64
	for i := 0; i < geluVecCells; i++ {
		geluExpand(-geluVecRange+float64(i)+0.5, a[:], b[:])
		for k := range a {
			cdf[k][i], grad[k][i] = a[k], b[k]
		}
	}
	return cdf, grad
}

// geluPoly widens x into v and evaluates tab's expansion at each v[j]
// into p[j] — the first two stages of a block. Inputs outside
// [-geluRange, geluRange), NaN included, get NaN, which fails the caller's
// rounding test and so reaches the reference.
func geluPoly(p, v *[geluBlock]float64, x []float32, tab *[geluCells]geluCell) {
	for j, xv := range x {
		v[j] = float64(xv)
	}
	for j, xv := range v[:len(x)] {
		if !(xv >= -geluRange && xv < geluRange) {
			p[j] = math.NaN()
			continue
		}
		cell := &tab[int((xv+geluRange)*8)]
		t := xv - cell.c
		a := &cell.a
		s := a[10]
		s = s*t + a[9]
		s = s*t + a[8]
		s = s*t + a[7]
		s = s*t + a[6]
		s = s*t + a[5]
		s = s*t + a[4]
		s = s*t + a[3]
		s = s*t + a[2]
		s = s*t + a[1]
		p[j] = s*t + a[0]
	}
}

// geluSpan sets dst[i] = GELU(x[i]), bit for bit geluScalar(x[i]). dst may
// be x itself. It is the one GELU entry: GeLUForward and the fused
// epilogue both call it, and it runs the kernel table's vector body when
// there is one. The return value counts the elements that took the
// reference expression; only the tests that bound the fallback rate read
// it.
func geluSpan(dst, x []float32) (fallbacks int) {
	if body := activeKernel.gelu; body != nil {
		return vecSpan(dst, x, body, geluScalar)
	}
	return geluGo(dst, x)
}

// geluGradSpan sets dX[i] = dY[i]·GELU'(x[i]), bit for bit
// dY[i]*geluGradScalar(x[i]), and counts fallbacks like geluSpan. dX may
// be dY itself.
func geluGradSpan(dX, dY, x []float32) (fallbacks int) {
	body := activeKernel.geluGrad
	if body == nil {
		// The Go body's derivative goes through a block-sized side
		// buffer, so dX may alias dY.
		var d [geluBlock]float32
		for len(x) > 0 {
			n := min(len(x), geluBlock)
			fallbacks += geluGradGo(d[:n], x[:n])
			for j, dv := range d[:n] {
				dX[j] = dY[j] * dv
			}
			dX, dY, x = dX[n:], dY[n:], x[n:]
		}
		return fallbacks
	}
	// vecSpan's loop with dY carried along: a lane the body leaves alone
	// still holds its dY.
	for len(x) > 0 {
		n := min(len(x), 64)
		for m := body(dX[:n], dY[:n], x[:n]); m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			dX[j] = dY[j] * geluGradScalar(x[j])
			fallbacks++
		}
		dX, dY, x = dX[n:], dY[n:], x[n:]
	}
	return fallbacks
}

// geluGo and geluGradGo are the Go bodies of the two spans.
func geluGo(dst, x []float32) (fallbacks int) {
	var v, p [geluBlock]float64
	for len(x) > 0 {
		n := min(len(x), geluBlock)
		geluPoly(&p, &v, x[:n], geluCDF)
		for j, xv := range v[:n] {
			y := xv * p[j]
			e := geluEps * math.Abs(xv)
			lo, hi := float32(y-e), float32(y+e)
			if lo != hi {
				lo = geluScalar(float32(xv))
				fallbacks++
			}
			dst[j] = lo
		}
		dst, x = dst[n:], x[n:]
	}
	return fallbacks
}

func geluGradGo(dst, x []float32) (fallbacks int) {
	var v, p [geluBlock]float64
	for len(x) > 0 {
		n := min(len(x), geluBlock)
		geluPoly(&p, &v, x[:n], geluGrad)
		for j, y := range p[:n] {
			lo, hi := float32(y-geluEps), float32(y+geluEps)
			if lo != hi {
				lo = geluGradScalar(float32(v[j]))
				fallbacks++
			}
			dst[j] = lo
		}
		dst, x = dst[n:], x[n:]
	}
	return fallbacks
}

// vecSpan drives a vector body over a span in blocks of up to 64: the body
// stores the lanes it could settle and returns the mask of the others,
// which still hold their input (stores are masked, so dst may be x) and
// take ref.
func vecSpan(dst, x []float32, body func(dst, x []float32) uint64, ref func(float32) float32) (fallbacks int) {
	for len(x) > 0 {
		n := min(len(x), 64)
		for m := body(dst[:n], x[:n]); m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			dst[j] = ref(x[j])
			fallbacks++
		}
		dst, x = dst[n:], x[n:]
	}
	return fallbacks
}
