package kernels

import "sync/atomic"

// GEMMPath selects which implementation the GEMM entry points route to.
//
// Production never sets it: under GEMMPathAuto every call decides its own
// route from its operands — products below smallGEMMFlops take the naive
// loops, larger ones the cache-blocked engine, weights the pack cache has
// seen reused skip the per-call pack, epilogues fuse into the tile
// write-back, and a batch runs one product per work item. The other three
// values are a test hook: the audit harness (internal/audit) and the kernel
// tests force one route for a whole forward+backward pass so the
// implementations can be differential-tested against each other at model
// scale — including shapes the size rule would never send to the engine
// (edge tiles, k < NR, single-row stripes). One value per route that differs
// in code executed:
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

// gemmPath is the active path override; reads are a single atomic load on
// the GEMM hot paths (same cost class as the maxWorkers load they already
// do).
var gemmPath atomic.Int32

// SetGEMMPath installs a path override and returns the previous one. It is
// a process-wide test hook — no production code calls it — and like
// SetMaxWorkers it is safe for concurrent use, but callers that force a
// path mid-run get whichever routing each in-flight call observed.
func SetGEMMPath(p GEMMPath) GEMMPath {
	return GEMMPath(gemmPath.Swap(int32(p)))
}

// CurrentGEMMPath returns the active path override.
func CurrentGEMMPath() GEMMPath { return GEMMPath(gemmPath.Load()) }
