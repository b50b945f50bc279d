package kernels

import (
	"fmt"
	"sort"
)

// The element-wise kernels correspond to the paper's non-GEMM operations
// (Section 3.2.3): each performs at most a handful of operations per
// element read, so they are memory-bandwidth bound on real accelerators.

func checkSameLen(name string, xs ...[]float32) int {
	n := len(xs[0])
	for _, x := range xs[1:] {
		if len(x) != n {
			panic(fmt.Sprintf("kernels: %s length mismatch: %d vs %d", name, n, len(x)))
		}
	}
	return n
}

// ewArgs are the operands of the flat element-wise kernels, which run as
// argsPool bodies so that a call allocates nothing.
type ewArgs struct {
	dst, a, b []float32
	s         float32
}

var ewBodies argsPool[ewArgs]

// rowArgs are the operands of the row-wise kernels (softmax, the sparse
// row flush, cross-entropy backward); each uses the fields it names.
type rowArgs struct {
	dst, x  []float32
	targets []int
	s       float32
	n       int
}

var rowBodies argsPool[rowArgs]

// Add computes dst[i] = a[i] + b[i] on the process pool.
func Add(dst, a, b []float32) { processPool.Add(dst, a, b) }

// Add computes dst[i] = a[i] + b[i].
func (pool *Pool) Add(dst, a, b []float32) {
	checkSameLen("Add", dst, a, b)
	ewBodies.run(pool, len(dst), grainFor(pool, len(dst), 1), ewArgs{dst: dst, a: a, b: b}, addRange)
}

func addRange(e *ewArgs, lo, hi int) { sumRow(e.dst[lo:hi], e.a[lo:hi], e.b[lo:hi]) }

// AccumulateInto computes dst[i] += a[i], the gradient-accumulation
// primitive.
func (pool *Pool) AccumulateInto(dst, a []float32) {
	checkSameLen("AccumulateInto", dst, a)
	ewBodies.run(pool, len(dst), grainFor(pool, len(dst), 1), ewArgs{dst: dst, a: a}, accumulateRange)
}

func accumulateRange(e *ewArgs, lo, hi int) { addRow(e.dst[lo:hi], e.a[lo:hi]) }

// FlushRows folds the listed rows of a row-major scatter accumulator into
// dst and clears them: dst[r] += acc[r], then acc[r] = +0, for every
// width-wide row r in rows (distinct). Each row is AccumulateInto's add,
// so over the listed rows it is bitwise AccumulateInto followed by ZeroAll.
func (pool *Pool) FlushRows(dst, acc []float32, rows []int, width int) {
	checkSameLen("FlushRows", dst, acc)
	rowBodies.run(pool, len(rows), grainFor(pool, len(rows), width), rowArgs{dst: dst, x: acc, targets: rows, n: width}, flushRowsRange)
}

func flushRowsRange(e *rowArgs, lo, hi int) {
	for _, r := range e.targets[lo:hi] {
		row := e.x[r*e.n : (r+1)*e.n]
		addRow(e.dst[r*e.n:(r+1)*e.n], row)
		clear(row)
	}
}

// addRow computes y[i] += x[i] through sumRow. It is the add loop behind
// AddBias, AccumulateInto, BiasGrad and the fused epilogue's bias and
// residual adds. Where both addends are NaN the vector body returns y's
// NaN, quieted; the Go body returns either one, since Go does not fix the
// operand order of a commutative add.
func addRow(y, x []float32) { sumRow(y, y, x) }

// sumRow computes dst[i] = a[i] + b[i], one float32 add per element,
// through the kernel table's vector body (whole 8-element groups) with the
// tail in Go; dst may be a or b. It is the one add loop of the package.
func sumRow(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	if body := activeKernel.addRow; body != nil {
		n8 := len(dst) &^ 7
		if n8 > 0 {
			body(dst[:n8], a[:n8], b[:n8])
		}
		dst, a, b = dst[n8:], a[n8:], b[n8:]
	}
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

// zeroGrain is the element chunk ZeroAll hands to the pool: 64 KiB of
// float32 per chunk.
const zeroGrain = 16384

// zeroAllArgs are ZeroAll's operands. Work items are element ranges of
// the buffers laid end to end, so one large buffer and many small ones
// spread over the pool alike.
type zeroAllArgs struct {
	bufs [][]float32
	ends []int // ends[i]: offset just past bufs[i] in the concatenation
}

// zeroAllPlans keeps ZeroAll's two slices from call to call: the bodies
// drop their operands after each region, and storing the caller's
// variadic slice in a body would move it to the heap on every call.
var (
	zeroAllPlans  freeList[zeroAllArgs]
	zeroAllBodies argsPool[zeroAllArgs]
)

func zeroAllRange(s *zeroAllArgs, lo, hi int) {
	for i := sort.SearchInts(s.ends, lo+1); lo < hi; i++ {
		start := s.ends[i] - len(s.bufs[i])
		end := min(hi, s.ends[i])
		clear(s.bufs[i][lo-start : end-start])
		lo = end
	}
}

// ZeroAll sets every element of every buffer to +0 in one pool region —
// a model's gradients cleared at once rather than one serial loop per
// tensor. The buffers must not overlap.
func (pool *Pool) ZeroAll(bufs ...[]float32) {
	s := zeroAllPlans.get()
	s.bufs, s.ends = append(s.bufs[:0], bufs...), s.ends[:0]
	total := 0
	for _, b := range bufs {
		total += len(b)
		s.ends = append(s.ends, total)
	}
	zeroAllBodies.run(pool, total, zeroGrain, *s, zeroAllRange)
	clear(s.bufs)
	zeroAllPlans.put(s)
}

// Mul computes dst[i] = a[i] * b[i].
func (pool *Pool) Mul(dst, a, b []float32) {
	checkSameLen("Mul", dst, a, b)
	ewBodies.run(pool, len(dst), grainFor(pool, len(dst), 1), ewArgs{dst: dst, a: a, b: b}, mulRange)
}

func mulRange(e *ewArgs, lo, hi int) { mulRow(e.dst[lo:hi], e.a[lo:hi], e.b[lo:hi]) }

// mulRow computes dst[i] = a[i] * b[i] through the kernel table's vector
// body (whole 8-element groups) with the tail in Go; dst may be a or b.
func mulRow(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	if body := activeKernel.mulRow; body != nil {
		n8 := len(dst) &^ 7
		if n8 > 0 {
			body(dst[:n8], a[:n8], b[:n8])
		}
		dst, a, b = dst[n8:], a[n8:], b[n8:]
	}
	for i, v := range a {
		dst[i] = v * b[i]
	}
}

// Scale computes dst[i] = s * a[i]. This is the attention-score
// normalization kernel (multiply by 1/sqrt(d_model/h)).
func (pool *Pool) Scale(dst, a []float32, s float32) {
	checkSameLen("Scale", dst, a)
	ewBodies.run(pool, len(dst), grainFor(pool, len(dst), 1), ewArgs{dst: dst, a: a, s: s}, scaleRange)
}

func scaleRange(e *ewArgs, lo, hi int) { scaleRow(e.dst[lo:hi], e.a[lo:hi], e.s) }

// scaleRow computes dst[i] = s * a[i] like mulRow; dst may be a.
func scaleRow(dst, a []float32, s float32) {
	a = a[:len(dst)]
	if body := activeKernel.scaleRow; body != nil {
		n8 := len(dst) &^ 7
		if n8 > 0 {
			body(dst[:n8], a[:n8], s)
		}
		dst, a = dst[n8:], a[n8:]
	}
	for i, v := range a {
		dst[i] = s * v
	}
}

// addBiasGrain is the element-range chunk AddBias hands to the pool:
// 16 KiB of float32 per chunk, coarse enough to amortize dispatch on a
// bandwidth-bound kernel.
const addBiasGrain = 4096

// biasArgs are the operands of AddBias and BiasGrad: the m×n matrix mat
// (x or dY) and the length-n vector vec (bias or dBias).
type biasArgs struct {
	mat, vec []float32
	m, n     int
}

var biasBodies argsPool[biasArgs]

// addBiasRange adds vec to element range [lo, hi) of mat. Work items are
// flattened element ranges rather than whole rows, so short-and-wide
// activations (m below the worker count — e.g. per-head attention tails)
// still spread across the pool instead of capping parallelism at m.
func addBiasRange(e *biasArgs, lo, hi int) {
	for i := lo; i < hi; {
		j := i % e.n
		end := min(hi, i-j+e.n) // clip the segment to its row boundary
		addRow(e.mat[i:end], e.vec[j:])
		i = end
	}
}

// AddBias adds a length-n bias vector to every row of an m×n matrix in
// place. (The GEMM epilogue engine fuses this into the tile write-back on
// the fast paths — this standalone kernel remains the unfused reference
// and serves the sites without a producing GEMM.)
func (pool *Pool) AddBias(x []float32, bias []float32, m, n int) {
	if len(x) != m*n || len(bias) != n {
		panic(fmt.Sprintf("kernels: AddBias dims x=%d bias=%d m=%d n=%d", len(x), len(bias), m, n))
	}
	biasBodies.run(pool, m*n, addBiasGrain, biasArgs{mat: x, vec: bias, m: m, n: n}, addBiasRange)
}

// colBand is the column multiple the column-band sweeps (BiasGrad,
// LayerNorm's dγ/dβ) cut their pool regions at: whole vector groups, and
// whole cache lines of an aligned destination.
const colBand = 64

// colBandGrain is the grain of a column-band sweep over n columns of m
// rows: the chunk rule's, rounded up to whole colBand multiples, so a few
// rows of a wide matrix (the MLM decoder's bias) sweep long contiguous
// runs per row instead of many narrow bands.
func colBandGrain(pool *Pool, n, m int) int {
	return (grainFor(pool, n, m) + colBand - 1) / colBand * colBand
}

// biasGradRange adds the sums of columns [lo, hi) of mat into vec. Work
// items are disjoint column ranges (so concurrent writes to dBias never
// collide), but within a band the matrix is swept row-major, each row
// added to the band accumulator by addRow, instead of stride-n single-float
// column walks. The band accumulator is seeded from the existing dBias and
// the per-column accumulation order stays i = 0..m-1, so the result is
// bitwise identical to a serial column-at-a-time continuation fold — and
// splitting the rows across calls (gradient accumulation) matches one call
// bitwise. The accumulator is a scratch buffer, scratchMin columns wide,
// not a stack array: a slice handed to the kernel table's body escapes,
// and a worker's own buffer keeps the band off the cache lines of dBias
// its neighbours write.
func biasGradRange(e *biasArgs, lo, hi int) {
	acc := getScratch(scratchMin)
	defer putScratch(acc)
	m, n := e.m, e.n
	for j0 := lo; j0 < hi; j0 += scratchMin {
		w := min(scratchMin, hi-j0)
		a := (*acc)[:w]
		out := e.vec[j0 : j0+w]
		copy(a, out)
		for i := 0; i < m; i++ {
			addRow(a, e.mat[i*n+j0:i*n+j0+w])
		}
		copy(out, a)
	}
}

// BiasGrad accumulates the column sums of an m×n gradient matrix into
// dBias (the backward pass of AddBias).
func (pool *Pool) BiasGrad(dBias []float32, dY []float32, m, n int) {
	if len(dY) != m*n || len(dBias) != n {
		panic(fmt.Sprintf("kernels: BiasGrad dims dY=%d dBias=%d m=%d n=%d", len(dY), len(dBias), m, n))
	}
	grain := colBandGrain(pool, n, m)
	reserveScratch(concurrentPieces(pool, n, grain), scratchMin)
	biasBodies.run(pool, n, grain, biasArgs{mat: dY, vec: dBias, m: m, n: n}, biasGradRange)
}
