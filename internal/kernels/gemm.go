package kernels

import "fmt"

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
	GEMMPathAuto.GEMM(nil, transA, transB, m, n, k, alpha, a, b, beta, c)
}

// GEMM is the package-level GEMM on route p and pool instead of auto and
// the process pool.
func (p GEMMPath) GEMM(pool *Pool, transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	checkGEMMArgs(transA, transB, m, n, k, a, b, c)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		scaleC(c, m, n, n, beta)
		return
	}
	p.run(pool, transA, transB, m, n, k, alpha, a, ldOf(transA, m, k), b, ldOf(transB, k, n), nil, beta, nil, c, n)
}

// ldOf is the leading dimension of a contiguous operand whose op(X) is
// rows×cols: cols when X is stored as op(X), rows when stored transposed.
func ldOf(trans bool, rows, cols int) int {
	if trans {
		return rows
	}
	return cols
}

// gemmNaivePar accumulates C += alpha·op(A)·op(B) with the unblocked
// loops, row-parallel on the worker pool (beta already applied by the
// caller). Each output element is computed by exactly one worker with the
// same inner-loop order regardless of the partition, so results are
// bitwise identical for any worker count.
func gemmNaivePar(pool *Pool, transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	parallelFor(pool, m, grainFor(pool, m, n*k), func(lo, hi int) {
		gemmNaiveRows(transA, transB, n, k, alpha, a, lda, b, ldb, c, ldc, lo, hi)
	})
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

// scaleC scales the m×n window of C (row stride ldc) by beta; 0 clears
// it, so its prior contents, NaN included, are never read.
func scaleC(c []float32, m, n, ldc int, beta float32) {
	if ldc == n {
		m, n = 1, m*n // contiguous: one row
	}
	for i := 0; i < m && beta != 1; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			clear(row)
			continue
		}
		for j := range row {
			row[j] *= beta
		}
	}
}

// gemmNaiveRows accumulates rows [lo, hi) of C += alpha·op(A)·op(B)
// with the unblocked loops; lda, ldb and ldc are the operands' row
// strides. Every element sums over p in order, whatever the row range,
// so any partition of [0, m) gives the same bits. There is
// deliberately no skip for zero coefficients: 0·NaN must stay NaN. Every
// product is rounded before it is added, so no architecture fuses it into
// the add and each element is the same sequence of roundings everywhere.
func gemmNaiveRows(transA, transB bool, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, lo, hi int) {
	switch {
	case !transA && !transB:
		// A is M×K, B is K×N: saxpy updates over rows of B, streaming
		// contiguous B and C rows.
		for i := lo; i < hi; i++ {
			ci := c[i*ldc : i*ldc+n]
			ai := a[i*lda : i*lda+k]
			for p := 0; p < k; p++ {
				axpy(alpha*ai[p], b[p*ldb:p*ldb+n], ci)
			}
		}
	case !transA && transB:
		// A is M×K, B is N×K: C[i][j] is a dot product of two
		// contiguous rows.
		for i := lo; i < hi; i++ {
			ai := a[i*lda : i*lda+k]
			ci := c[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				ci[j] += float32(alpha * dot(ai, b[j*ldb:j*ldb+k]))
			}
		}
	case transA && !transB:
		// A is K×M, B is K×N: for each p, a rank-1 update of the C row
		// block.
		for p := 0; p < k; p++ {
			ap := a[p*lda:]
			bp := b[p*ldb : p*ldb+n]
			for i := lo; i < hi; i++ {
				axpy(alpha*ap[i], bp, c[i*ldc:i*ldc+n])
			}
		}
	default:
		// A is K×M, B is N×K: the B row is contiguous, A is strided. TT
		// does not occur in BERT's training graph.
		for i := lo; i < hi; i++ {
			ci := c[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				bj := b[j*ldb : j*ldb+k]
				var sum float32
				for p := 0; p < k; p++ {
					sum += float32(a[p*lda+i] * bj[p])
				}
				ci[j] += float32(alpha * sum)
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
		s0 += float32(x[i] * y[i])
		s1 += float32(x[i+1] * y[i+1])
		s2 += float32(x[i+2] * y[i+2])
		s3 += float32(x[i+3] * y[i+3])
	}
	for ; i < len(x); i++ {
		s0 += float32(x[i] * y[i])
	}
	return s0 + s1 + s2 + s3
}

// axpy computes y += s·x for equal-length slices.
func axpy(s float32, x, y []float32) {
	_ = y[len(x)-1]
	for i, v := range x {
		y[i] += float32(s * v)
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
	GEMMPathAuto.BatchedGEMM(nil, batch, transA, transB, m, n, k, alpha, a, strideA, b, strideB, beta, c, strideC)
}

// BatchedGEMM is the package-level BatchedGEMM on route p and pool instead
// of auto and the process pool.
func (p GEMMPath) BatchedGEMM(pool *Pool, batch int, transA, transB bool, m, n, k int, alpha float32, a []float32, strideA int, b []float32, strideB int, beta float32, c []float32, strideC int) {
	checkBatchedGEMMArgs(batch, m, n, k, a, strideA, b, strideB, c, strideC)
	if batch == 0 {
		return
	}
	if batch == 1 {
		p.GEMM(pool, transA, transB, m, n, k, alpha, a, b, beta, c)
		return
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || alpha == 0 {
		for i := 0; i < batch; i++ {
			scaleC(c[i*strideC:], m, n, n, beta)
		}
		return
	}
	batchedGEMMRuns.Inc()
	p.reserveNested(concurrentPieces(pool, batch, 1), m, n, k, 0)
	batchedBodies.run(pool, batch, 1, batchedArgs{path: p, transA: transA, transB: transB, m: m, n: n, k: k,
		alpha: alpha, beta: beta, a: a, b: b, c: c, sA: strideA, sB: strideB, sC: strideC}, batchedRange)
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

// batchedArgs are BatchedGEMM's operands: item i is the i-th matrix
// product of the batch.
type batchedArgs struct {
	path           GEMMPath
	transA, transB bool
	m, n, k        int
	alpha, beta    float32
	a, b, c        []float32
	sA, sB, sC     int
}

var batchedBodies argsPool[batchedArgs]

func batchedRange(s *batchedArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.path.run(serial, s.transA, s.transB, s.m, s.n, s.k, s.alpha,
			s.a[i*s.sA:], ldOf(s.transA, s.m, s.k),
			s.b[i*s.sB:], ldOf(s.transB, s.k, s.n),
			nil, s.beta, nil, s.c[i*s.sC:], s.n)
	}
}
