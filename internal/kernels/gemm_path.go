package kernels

// GEMMPath is the route a GEMM call takes: a value the caller passes (the
// methods below; nn reads it from Ctx.Route), never process state. Its
// entry points take the pool the product runs on as their first argument.
//
// Production passes GEMMPathAuto: every call decides its own route from its
// operands — products below smallGEMMFlops take the naive loops, larger
// ones the cache-blocked engine, weights the pack cache has seen reused
// skip the per-call pack, short stripes without built panels read or pack B
// where they consume it, epilogues fuse into the tile write-back, and a
// batch runs one product per work item. The package-level GEMM, GEMMPacked
// and BatchedGEMM are that route on the process pool. The other three
// values force one route for a whole forward+backward pass, so the audit
// harness (internal/audit) and the kernel tests can differential-test the
// implementations against each other at model scale — including shapes the
// size rule would never send to the engine (edge tiles, k < NR, single-row
// stripes). One value per route that differs in code executed:
//
//	         small      B with built       B without panels (a weight's     epilogue tail
//	         products   panels             first use, activations)
//	auto     naive      pre-packed once    m ≤ 2·gemmMC: short stripe —     fused (engine) /
//	         loops      reused             read in place (NN) or packed     reference (naive)
//	                                       per segment (NT); taller:
//	                                       packed per call
//	naive    naive      raw                raw                              reference
//	         loops
//	blocked  engine     packed per call    packed per call                  reference
//	fused    engine     pre-packed at      packed per call                  fused
//	                    once
//
// blocked is the bitwise comparator for fused and for auto's engine
// routes: same micro-kernel, same A panels and B values, same depth order
// per C element, with every shortcut (pack reuse, fused tail, short
// stripes) turned off. Serial products (BatchedGEMM's and
// the attention region's per-head calls) keep the per-call schedule on auto.
type GEMMPath int32

const (
	// GEMMPathAuto is the production default: size- and operand-based
	// routing.
	GEMMPathAuto GEMMPath = iota
	// GEMMPathNaive forces the unblocked row-saxpy/dot reference loops
	// everywhere (the oracle implementation).
	GEMMPathNaive
	// GEMMPathBlocked forces the cache-blocked engine at every size with
	// per-call operand packing (pre-packed weights are ignored) and the
	// unfused reference epilogue tail.
	GEMMPathBlocked
	// GEMMPathFused forces the cache-blocked engine at every size with
	// pre-packed weights on GEMMPacked calls (PackCache builds on first
	// use under it) and the epilogue tail fused into the tile write-back
	// on GEMMPackedEpilogue calls.
	GEMMPathFused
)

// String names the path for mode tables and audit reports.
func (p GEMMPath) String() string {
	switch p {
	case GEMMPathAuto:
		return "auto"
	case GEMMPathNaive:
		return "naive"
	case GEMMPathBlocked:
		return "blocked"
	case GEMMPathFused:
		return "fused"
	}
	return "invalid"
}

// run computes C = alpha·op(A)·op(B) + beta·C on route p and applies ep
// (nil: no tail); the quick returns are the caller's. Each operand is read
// or written at its own leading dimension (lda, ldb, ldc: the row stride
// of the stored matrix, BLAS's convention), so an operand may be a window
// of a wider matrix, such as one head's columns of the attention
// projections; nothing outside C's m×n window is written. The public entry
// points pass the contiguous strides (ldOf). Every entry point routes
// here: the naive loops when forced, or under auto below the size rule,
// and the forced blocked engine on per-call panels, each followed by the
// reference tail; otherwise the engine with the tail fused into its
// write-back: auto's short-stripe route when panels is nil, pool is set
// and C has at most shortStripeRows rows, else gemmBlocked on panels
// (op(B) pre-packed by PackWeight) or, when nil, packed per call. pool is
// the pool the product's regions run on; BatchedGEMM and the attention
// region pass serial for their per-matrix products, which carry no
// epilogue. An epilogue's buffers share C's layout, so ep comes only with
// a contiguous C (ldc = n).
//
// Packing reads a strided operand into the same panels as a contiguous
// one, and the naive loops read the same values in the same order, so a
// product's bits do not depend on its operands' leading dimensions. The
// naive loops scale C by beta in a pre-pass. The engine does too for a
// beta other than 0 and 1; at beta = 0 each tile (each column segment, on
// a short stripe) clears its own region of C on its first depth block
// instead (gemmState.tile, stripeSegments), on the worker that computes
// it. C holds +0 before the first multiply-add either way, so the
// result is bitwise the same, and C's prior contents — NaN included — are
// never read.
func (p GEMMPath) run(pool *Pool, transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, panels []float32, beta float32, ep *Epilogue, c []float32, ldc int) {
	switch {
	case p.naiveLoops(m, n, k):
		scaleC(c, m, n, ldc, beta)
		if p == GEMMPathNaive && pool != serial {
			gemmNaivePar(pool, transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		} else {
			gemmNaiveRows(transA, transB, n, k, alpha, a, lda, b, ldb, c, ldc, 0, m)
		}
	case p == GEMMPathBlocked:
		gemmBlocked(pool, transA, transB, m, n, k, alpha, a, lda, b, ldb, nil, beta, nil, c, ldc)
	case p == GEMMPathAuto && panels == nil && pool != serial && m <= shortStripeRows:
		ep.countFused()
		gemmShortStripe(pool, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, ep, c, ldc)
		return
	default:
		ep.countFused()
		gemmBlocked(pool, transA, transB, m, n, k, alpha, a, lda, b, ldb, panels, beta, ep, c, ldc)
		return
	}
	ep.applyReference(pool, c, m, n)
}

// naiveLoops reports whether route p runs an m×n×k product on the naive
// loops: always when forced, below smallGEMMFlops on auto.
func (p GEMMPath) naiveLoops(m, n, k int) bool {
	return p == GEMMPathNaive || p == GEMMPathAuto && 2*m*n*k < smallGEMMFlops
}

// reserveNested reserves (reserveScratch), for pieces chunks of a region,
// the buffers an m×n×k product run on the serial pool inside each draws
// on route p — the packed A and B blocks and the edge side buffer of
// gemmBlocked, none on the naive loops — besides a buffer of held floats
// that a chunk holds across the product.
func (p GEMMPath) reserveNested(pieces, m, n, k, held int) {
	ap, bp, edge := 0, 0, 0
	if !p.naiveLoops(m, n, k) {
		ap, bp = blockedScratch(m, n, k)
		edge = edgeScratch(m, n)
	}
	reserveScratch(pieces, held, ap, bp, edge)
}

// serial is the pool argument that makes the GEMM engine's internal
// functions run a product on the calling goroutine without forking a
// region: a product nested in another region's work item. It is a sentinel
// compared by address; nothing is ever dispatched on it.
var serial = new(Pool)
