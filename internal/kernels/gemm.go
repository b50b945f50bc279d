package kernels

import (
	"fmt"
	"sync"
)

// GEMM computes C = alpha·op(A)·op(B) + beta·C for row-major matrices.
//
// op(A) is M×K: A is stored M×K when transA is false, K×M when true.
// op(B) is K×N: B is stored K×N when transB is false, N×K when true.
// C is always stored M×N.
//
// Large products run through the cache-blocked packed implementation
// (gemm_blocked.go) parallelized on the persistent worker pool; tiny ones
// fall back to the naive reference path, whose packing overhead would
// dominate. Results are bitwise deterministic for a given shape and
// backend. It panics if a buffer is too small for its dimensions, since a
// silent out-of-bounds read would corrupt training.
//
// Following BLAS quick-return semantics, alpha == 0 (or k == 0) skips the
// product entirely — C is only scaled by beta, even if A or B contain
// NaN/Inf. Within a computed product, however, non-finite values propagate
// exactly (0·NaN = NaN): the kernels never skip zero operands.
func GEMM(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	GEMMPathAuto.GEMM(transA, transB, m, n, k, alpha, a, b, beta, c)
}

// GEMM is the package-level GEMM on route p instead of auto.
func (p GEMMPath) GEMM(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	checkGEMMArgs(transA, transB, m, n, k, a, b, c)
	if m == 0 || n == 0 {
		return
	}
	scaleC(c[:m*n], beta)
	if k == 0 || alpha == 0 {
		return
	}
	p.run(transA, transB, m, n, k, alpha, a, b, nil, nil, c, true)
}

// GEMMNaive is the unblocked row-saxpy/dot implementation GEMM used before
// cache blocking. It is kept as the reference oracle for equivalence tests
// and as the "before" baseline for the perf benchmarks; same semantics as
// GEMM.
func GEMMNaive(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	checkGEMMArgs(transA, transB, m, n, k, a, b, c)
	if m == 0 || n == 0 {
		return
	}
	scaleC(c[:m*n], beta)
	if k == 0 || alpha == 0 {
		return
	}
	gemmNaivePar(transA, transB, m, n, k, alpha, a, b, c)
}

// gemmNaivePar accumulates C += alpha·op(A)·op(B) with the unblocked
// loops, row-parallel on the worker pool (beta already applied by the
// caller). Each output element is computed by exactly one worker with the
// same inner-loop order regardless of the partition, so results are
// bitwise identical for any worker count.
func gemmNaivePar(transA, transB bool, m, n, k int, alpha float32, a, b, c []float32) {
	parallelFor(m, n*k, func(lo, hi int) {
		gemmNaiveRows(transA, transB, m, n, k, alpha, a, b, c, lo, hi)
	})
}

// gemmNaiveSerial accumulates C += alpha·op(A)·op(B) with the unblocked
// single-threaded loops (beta already applied by the caller).
func gemmNaiveSerial(transA, transB bool, m, n, k int, alpha float32, a, b, c []float32) {
	gemmNaiveRows(transA, transB, m, n, k, alpha, a, b, c, 0, m)
}

func checkGEMMArgs(transA, transB bool, m, n, k int, a, b, c []float32) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("kernels: GEMM with negative dims m=%d n=%d k=%d", m, n, k))
	}
	if len(a) < m*k {
		panic(fmt.Sprintf("kernels: GEMM A buffer %d < m*k=%d (transA=%v)", len(a), m*k, transA))
	}
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: GEMM B buffer %d < k*n=%d (transB=%v)", len(b), k*n, transB))
	}
	if len(c) < m*n {
		panic(fmt.Sprintf("kernels: GEMM C buffer %d < m*n=%d", len(c), m*n))
	}
}

func scaleC(c []float32, beta float32) {
	switch beta {
	case 1:
	case 0:
		clear(c)
	default:
		for i := range c {
			c[i] *= beta
		}
	}
}

// gemmNaiveRows accumulates rows [lo, hi) of C += alpha·op(A)·op(B)
// with the unblocked loops. Every element sums over p in order, whatever
// the row range, so any partition of [0, m) gives the same bits. There is
// deliberately no skip for zero coefficients: 0·NaN must stay NaN.
func gemmNaiveRows(transA, transB bool, m, n, k int, alpha float32, a, b, c []float32, lo, hi int) {
	switch {
	case !transA && !transB:
		// A is M×K, B is K×N: saxpy updates over rows of B, streaming
		// contiguous B and C rows.
		for i := lo; i < hi; i++ {
			ci := c[i*n : (i+1)*n]
			ai := a[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				axpy(alpha*ai[p], b[p*n:(p+1)*n], ci)
			}
		}
	case !transA && transB:
		// A is M×K, B is N×K: C[i][j] is a dot product of two
		// contiguous rows.
		for i := lo; i < hi; i++ {
			ai := a[i*k : (i+1)*k]
			ci := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += alpha * dot(ai, b[j*k:(j+1)*k])
			}
		}
	case transA && !transB:
		// A is K×M, B is K×N: for each p, a rank-1 update of the C row
		// block.
		for p := 0; p < k; p++ {
			ap := a[p*m : (p+1)*m]
			bp := b[p*n : (p+1)*n]
			for i := lo; i < hi; i++ {
				axpy(alpha*ap[i], bp, c[i*n:(i+1)*n])
			}
		}
	default:
		// A is K×M, B is N×K: the B row is contiguous, A is strided. TT
		// does not occur in BERT's training graph.
		for i := lo; i < hi; i++ {
			ci := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b[j*k : (j+1)*k]
				var sum float32
				for p := 0; p < k; p++ {
					sum += a[p*m+i] * bj[p]
				}
				ci[j] += alpha * sum
			}
		}
	}
}

// dot returns the inner product of equal-length slices, unrolled 4-wide
// with independent accumulators so the compiler can keep them in registers.
func dot(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1 + s2 + s3
}

// axpy computes y += s·x for equal-length slices.
func axpy(s float32, x, y []float32) {
	_ = y[len(x)-1]
	for i, v := range x {
		y[i] += s * v
	}
}

// BatchedGEMM performs batch independent GEMMs with identical dimensions,
// the manifestation of BERT's attention operations (B·h parallel GEMMs
// launched as a single kernel, Section 3.2.2). Matrix i of each operand
// begins at offset i·stride of its buffer.
//
// Whole matrices are distributed over the worker pool and each product
// runs single-threaded through the same routing as GEMM (naive below
// smallGEMMFlops, the blocked engine above), so the result is bitwise a
// serial loop of GEMM calls at any worker count. It panics if a stride is
// smaller than its matrix or a buffer cannot hold all batch entries, since
// a silent out-of-bounds access would corrupt a later batch element.
func BatchedGEMM(batch int, transA, transB bool, m, n, k int, alpha float32, a []float32, strideA int, b []float32, strideB int, beta float32, c []float32, strideC int) {
	GEMMPathAuto.BatchedGEMM(batch, transA, transB, m, n, k, alpha, a, strideA, b, strideB, beta, c, strideC)
}

// BatchedGEMM is the package-level BatchedGEMM on route p instead of auto.
func (p GEMMPath) BatchedGEMM(batch int, transA, transB bool, m, n, k int, alpha float32, a []float32, strideA int, b []float32, strideB int, beta float32, c []float32, strideC int) {
	checkBatchedGEMMArgs(batch, m, n, k, a, strideA, b, strideB, c, strideC)
	if batch == 0 {
		return
	}
	if batch == 1 {
		p.GEMM(transA, transB, m, n, k, alpha, a, b, beta, c)
		return
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		for i := 0; i < batch; i++ {
			scaleC(c[i*strideC:i*strideC+m*n], beta)
		}
		return
	}
	batchedGEMMRuns.Inc()
	s := batchedPool.Get().(*batchedState)
	s.path = p
	s.transA, s.transB = transA, transB
	s.m, s.n, s.k = m, n, k
	s.alpha, s.beta = alpha, beta
	s.a, s.b, s.c = a, b, c
	s.sA, s.sB, s.sC = strideA, strideB, strideC
	parallelRun(batch, 1, s)
	s.a, s.b, s.c = nil, nil, nil
	batchedPool.Put(s)
}

// BatchedGEMMPerMatrix is BatchedGEMM under the name it had while a second,
// flattened batched engine existed beside it; bench/ still calls it.
func BatchedGEMMPerMatrix(batch int, transA, transB bool, m, n, k int, alpha float32, a []float32, strideA int, b []float32, strideB int, beta float32, c []float32, strideC int) {
	BatchedGEMM(batch, transA, transB, m, n, k, alpha, a, strideA, b, strideB, beta, c, strideC)
}

// checkBatchedGEMMArgs validates dims, strides, and — unlike the
// pre-blocked implementation, which only the first matrix could catch —
// that every buffer covers its last batch entry: length must reach
// stride·(batch-1) + matrix size, so a short buffer panics up front
// instead of corrupting a later batch element mid-run. Buffers whose
// matrix size is zero are never touched and are exempt.
func checkBatchedGEMMArgs(batch, m, n, k int, a []float32, strideA int, b []float32, strideB int, c []float32, strideC int) {
	if batch < 0 {
		panic("kernels: BatchedGEMM with negative batch")
	}
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("kernels: BatchedGEMM with negative dims m=%d n=%d k=%d", m, n, k))
	}
	if batch == 0 {
		return
	}
	if strideA < m*k || strideB < k*n || strideC < m*n {
		panic(fmt.Sprintf("kernels: BatchedGEMM strides (%d,%d,%d) smaller than matrix sizes (%d,%d,%d)",
			strideA, strideB, strideC, m*k, k*n, m*n))
	}
	if need := (batch-1)*strideA + m*k; m*k > 0 && len(a) < need {
		panic(fmt.Sprintf("kernels: BatchedGEMM A buffer %d < strideA·(batch-1)+m·k = %d (batch=%d strideA=%d m=%d k=%d)",
			len(a), need, batch, strideA, m, k))
	}
	if need := (batch-1)*strideB + k*n; k*n > 0 && len(b) < need {
		panic(fmt.Sprintf("kernels: BatchedGEMM B buffer %d < strideB·(batch-1)+k·n = %d (batch=%d strideB=%d k=%d n=%d)",
			len(b), need, batch, strideB, k, n))
	}
	if need := (batch-1)*strideC + m*n; m*n > 0 && len(c) < need {
		panic(fmt.Sprintf("kernels: BatchedGEMM C buffer %d < strideC·(batch-1)+m·n = %d (batch=%d strideC=%d m=%d n=%d)",
			len(c), need, batch, strideC, m, n))
	}
}

// batchedState is the pooled parallel-region body of BatchedGEMM: item i
// is the i-th matrix product of the batch.
type batchedState struct {
	path           GEMMPath
	transA, transB bool
	m, n, k        int
	alpha, beta    float32
	a, b, c        []float32
	sA, sB, sC     int
}

var batchedPool = sync.Pool{New: func() any { return new(batchedState) }}

func (s *batchedState) runRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		c := s.c[i*s.sC : i*s.sC+s.m*s.n]
		scaleC(c, s.beta)
		s.path.run(s.transA, s.transB, s.m, s.n, s.k, s.alpha,
			s.a[i*s.sA:i*s.sA+s.m*s.k],
			s.b[i*s.sB:i*s.sB+s.k*s.n],
			nil, nil, c, false)
	}
}
