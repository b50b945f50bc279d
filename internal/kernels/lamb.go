package kernels

import "math"

// LAMB's two per-tensor sweeps (optim.LAMB drives them). Both are
// bandwidth-bound — stage 1 streams seven arrays, stage 2 three — so each
// has a 256-bit body on the kernel table next to the portable Go one, and
// the two must agree bit for bit: the vector bodies use only IEEE
// multiply, add, subtract, divide and square root on float32 (no FMA, no
// reciprocal estimate), and the Go body rounds every product to float32
// before it is added. That explicit rounding is also what keeps the ports
// in step: written as `b1*m + (1-b1)*g`, the Go compiler fuses the
// multiply-add on arm64, ppc64le and s390x, and those builds then
// disagree with amd64 in the last bit of m, v and w.

// lambCoef holds stage 1's scalars in the order the vector body
// broadcasts them.
type lambCoef struct {
	gradScale, beta1, oneMinusBeta1, beta2, oneMinusBeta2, bc1, bc2, eps, weightDecay float32
}

// update is stage 1 on one element: the new m and v and the update
// direction u, one rounding per operation.
func (c *lambCoef) update(g, m, v, w float32) (mNew, vNew, u float32) {
	g = g * c.gradScale
	mNew = float32(c.beta1*m) + float32(c.oneMinusBeta1*g)
	vNew = float32(c.beta2*v) + float32(float32(c.oneMinusBeta2*g)*g)
	mh := mNew / c.bc1
	vh := vNew / c.bc2
	u = mh/(float32(math.Sqrt(float64(vh)))+c.eps) + float32(c.weightDecay*w)
	return mNew, vNew, u
}

// lambStage1Go is the portable lane body of stage 1 over a whole number of
// 8-element groups: it updates m, v and u and returns the folded ‖w‖² and
// ‖u‖² (lanes as in sumSq8Go).
func lambStage1Go(g, m, v, w, u []float32, c *lambCoef) (wSq, uSq float64) {
	var lw, lu [8]float64
	for i := 0; i+8 <= len(g); i += 8 {
		g8, m8, v8, w8, u8 := g[i:i+8], m[i:i+8], v[i:i+8], w[i:i+8], u[i:i+8]
		for j := range g8 {
			m8[j], v8[j], u8[j] = c.update(g8[j], m8[j], v8[j], w8[j])
			lw[j] += float64(w8[j]) * float64(w8[j])
			lu[j] += float64(u8[j]) * float64(u8[j])
		}
	}
	return fold8(&lw), fold8(&lu)
}

// lambStage1Args are LAMBStage1's operands: item b is fold block b, and
// its two partial norms go to slots 2b and 2b+1.
type lambStage1Args struct {
	g, m, v, w, u []float32
	c             lambCoef
	part          []float64
}

var lambStage1Bodies argsPool[lambStage1Args]

func lambStage1Range(s *lambStage1Args, lo, hi int) {
	body := activeKernel.lambStage1
	if body == nil {
		body = lambStage1Go
	}
	for b := lo; b < hi; b++ {
		i0 := b * sumSqBlock
		i1 := min(i0+sumSqBlock, len(s.g))
		g, m, v, w, u := s.g[i0:i1], s.m[i0:i1], s.v[i0:i1], s.w[i0:i1], s.u[i0:i1]
		n8 := len(g) &^ 7
		var wSq, uSq float64
		if n8 > 0 {
			wSq, uSq = body(g[:n8], m[:n8], v[:n8], w[:n8], u[:n8], &s.c)
		}
		for i := n8; i < len(g); i++ {
			m[i], v[i], u[i] = s.c.update(g[i], m[i], v[i], w[i])
			wSq += float64(w[i]) * float64(w[i])
			uSq += float64(u[i]) * float64(u[i])
		}
		s.part[2*b], s.part[2*b+1] = wSq, uSq
	}
}

// LAMBStage1 is LAMB's first sweep over one parameter tensor. Per element,
// with g' = g·gradScale:
//
//	m = beta1·m + (1-beta1)·g'
//	v = beta2·v + (1-beta2)·g'·g'
//	u = (m/bc1) / (sqrt(v/bc2) + eps) + weightDecay·w
//
// It reads g, m, v, w, writes m, v, u, and returns ‖w‖² and ‖u‖² — the
// trust ratio's two norms — accumulated in the same pass; they equal
// SumSquares(w) and SumSquares(u) bit for bit.
func (pool *Pool) LAMBStage1(g, m, v, w, u []float32, gradScale, beta1, beta2, bc1, bc2, eps, weightDecay float32) (wSq, uSq float64) {
	n := checkSameLen("LAMBStage1", g, m, v, w, u)
	blocks := (n + sumSqBlock - 1) / sumSqBlock
	p := getPartials(2 * blocks)
	c := lambCoef{gradScale, beta1, 1 - beta1, beta2, 1 - beta2, bc1, bc2, eps, weightDecay}
	lambStage1Bodies.run(pool, blocks, grainFor(pool, blocks, sumSqBlock), lambStage1Args{g: g, m: m, v: v, w: w, u: u, c: c, part: *p}, lambStage1Range)
	for b := 0; b < blocks; b++ {
		wSq += (*p)[2*b]
		uSq += (*p)[2*b+1]
	}
	f64Partials.put(p)
	return wSq, uSq
}

func subScaledRange(e *ewArgs, lo, hi int) {
	y, x := e.dst[lo:hi], e.a[lo:hi]
	if body := activeKernel.subScaled; body != nil {
		n8 := len(y) &^ 7
		if n8 > 0 {
			body(y[:n8], x[:n8], e.s)
		}
		y, x = y[n8:], x[n8:]
	}
	for i, xv := range x {
		y[i] -= float32(e.s * xv)
	}
}

// SubScaled computes y[i] -= a·x[i], the product rounded to float32 before
// the subtraction: LAMB's second sweep (w -= lr·trust·u).
func (pool *Pool) SubScaled(y, x []float32, a float32) {
	n := checkSameLen("SubScaled", y, x)
	ewBodies.run(pool, n, grainFor(pool, n, 1), ewArgs{dst: y, a: x, s: a}, subScaledRange)
}
