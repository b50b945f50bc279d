package kernels

// GEMMPath is the route a GEMM call takes: a value the caller passes (the
// methods below; nn reads it from Ctx.Route), never process state.
//
// Production passes GEMMPathAuto: every call decides its own route from its
// operands — products below smallGEMMFlops take the naive loops, larger
// ones the cache-blocked engine, weights the pack cache has seen reused
// skip the per-call pack, epilogues fuse into the tile write-back, and a
// batch runs one product per work item. The package-level GEMM, GEMMPacked
// and BatchedGEMM are that route. The other three values force one route
// for a whole forward+backward pass, so the audit harness (internal/audit)
// and the kernel tests can differential-test the implementations against
// each other at model scale — including shapes the size rule would never
// send to the engine (edge tiles, k < NR, single-row stripes). One value per
// route that differs in code executed:
//
//	             small products   B operand                    epilogue tail
//	auto         naive loops      pre-packed once reused,      fused (engine) / reference (naive)
//	                              per call on a first use
//	naive        naive loops      raw                          reference
//	blocked      engine           packed per call              reference
//	fused        engine           pre-packed at once           fused
//
// blocked is the bitwise comparator for fused: same micro-kernel, same
// panel bytes, same schedule, with both shortcuts (pack reuse, fused tail)
// turned off. auto's first-use route sits between them — panels per call,
// tail fused — and is bitwise both.
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

// run accumulates C += alpha·op(A)·op(B) on route p and applies ep (nil:
// no tail); beta and the quick returns are the caller's. Every entry point
// routes here: the naive loops when forced, or under auto below the size
// rule, and the forced blocked engine on per-call panels, each followed by
// the reference tail; otherwise the engine with the tail fused into its
// write-back, on panels (op(B) pre-packed by PackWeight) or, when nil,
// packed per call. par allows pool parallelism; BatchedGEMM and
// AttentionRagged pass false for their per-matrix products.
func (p GEMMPath) run(transA, transB bool, m, n, k int, alpha float32, a, b, panels []float32, ep *Epilogue, c []float32, par bool) {
	switch {
	case p == GEMMPathNaive && par:
		gemmNaivePar(transA, transB, m, n, k, alpha, a, b, c)
	case p == GEMMPathNaive, p == GEMMPathAuto && 2*m*n*k < smallGEMMFlops:
		gemmNaiveSerial(transA, transB, m, n, k, alpha, a, b, c)
	case p == GEMMPathBlocked:
		gemmBlocked(transA, transB, m, n, k, alpha, a, b, nil, nil, c, par)
	default:
		ep.countFused()
		gemmBlocked(transA, transB, m, n, k, alpha, a, b, panels, ep, c, par)
		return
	}
	ep.applyReference(c, m, n)
}
