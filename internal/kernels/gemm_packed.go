package kernels

import (
	"fmt"
	"sync/atomic"
)

// Pre-packed B operands. A weight matrix used as the B operand of more than
// one GEMM before the optimizer next writes it (gradient-accumulation
// micro-batches, a checkpoint segment's recompute, eval loops, every served
// request) can be packed into micro-panels once and reused, skipping the
// packB copy on every later call. A plain training step uses each
// orientation of each weight exactly once per generation, and there a
// whole-matrix pack is a freshly faulted-in copy that is read once and
// thrown away — slower than packing per call into cache-resident scratch —
// so PackCache builds the panels on a generation's second use, not its
// first (DESIGN.md §7).
//
// Layout: for each gemmKC depth block pc, all ceil(n/nr) nr-column
// micro-panels of op(B)[pc:pc+kcb][0:n] are stored contiguously, zero-
// padded on the right — byte-for-byte what packB produces for a full-width
// column block. Block pc starts at offset panelW·pc (panelW = ceil(n/nr)·nr),
// so GEMMPacked can hand gemmState.run the same panel geometry the
// on-the-fly path uses and hit the identical micro-kernel schedule:
// results are bitwise equal to GEMM's blocked path on the same backend.

// PackedB is a weight matrix prepared for use as the B operand of
// GEMMPacked: packed into micro-panels (by PackWeight, or by PackCache on a
// generation's second use), or — PackCache's answer to a first use — only
// described, in which case the call packs it block by block as GEMM does,
// bitwise to the same result. It is immutable once returned and safe for
// concurrent readers.
type PackedB struct {
	transB bool
	n, k   int
	nr     int       // micro-panel width the pack is for
	buf    []float32 // panelW*k floats of packed panels; nil while unbuilt
	src    []float32 // original operand: per-call packing and the naive routes
}

// PackWeight packs op(B) (K×N; stored K×N when transB is false, N×K when
// true) into KC-blocked micro-panels. The pack costs one pass over the
// matrix and one extra copy of it in memory; amortize it by reusing the
// result across calls (see PackCache).
func PackWeight(transB bool, n, k int, b []float32) *PackedB {
	pb := describeWeight(transB, n, k, b)
	panelW := panelWidth(n, pb.nr)
	pb.buf = make([]float32, panelW*k)
	for pc := 0; pc < k; pc += gemmKC {
		kcb := min(gemmKC, k-pc)
		packB(transB, pb.buf[panelW*pc:panelW*pc+panelW*kcb], b, 0, n, pc, kcb, n, k, pb.nr, true)
	}
	return pb
}

// panelWidth is the column count of one packed depth block: n rounded up to
// whole nr-column micro-panels.
func panelWidth(n, nr int) int { return (n + nr - 1) / nr * nr }

// describeWeight returns the un-built PackedB of op(B): the operand and the
// geometry a pack of it would have under the active backend, no panels.
func describeWeight(transB bool, n, k int, b []float32) *PackedB {
	if n < 0 || k < 0 {
		panic(fmt.Sprintf("kernels: PackWeight with negative dims n=%d k=%d", n, k))
	}
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: PackWeight B buffer %d < k*n=%d (transB=%v)", len(b), k*n, transB))
	}
	return &PackedB{transB: transB, n: n, k: k, nr: gemmNR, src: b}
}

// TransB reports the orientation the pack was built for.
func (pb *PackedB) TransB() bool { return pb.transB }

// N returns the packed operand's column count (op(B) is K×N).
func (pb *PackedB) N() int { return pb.n }

// K returns the packed operand's depth.
func (pb *PackedB) K() int { return pb.k }

// Matches reports whether the pack can serve a GEMMPacked call with the
// given orientation and dimensions under the active micro-kernel backend
// (a pack built for one panel width is useless for another).
func (pb *PackedB) Matches(transB bool, n, k int) bool {
	return pb != nil && pb.transB == transB && pb.n == n && pb.k == k && pb.nr == gemmNR
}

// GEMMPacked computes C = alpha·op(A)·pb + beta·C, where pb is op(B) as
// PackWeight or PackCache returns it. Semantics match GEMM exactly — same
// quick returns, same panics, and bitwise-identical results on the same
// backend — minus, when pb holds panels, the per-call packB pass.
func GEMMPacked(transA bool, m, n, k int, alpha float32, a []float32, pb *PackedB, beta float32, c []float32) {
	GEMMPathAuto.GEMMPacked(transA, m, n, k, alpha, a, pb, beta, c)
}

// GEMMPacked is the package-level GEMMPacked on route p instead of auto.
// The forced blocked route ignores pb's panels and packs the raw operand
// per call, as GEMM does; the naive routes multiply the raw operand pb
// keeps.
func (p GEMMPath) GEMMPacked(transA bool, m, n, k int, alpha float32, a []float32, pb *PackedB, beta float32, c []float32) {
	pb.check("GEMMPacked", n, k)
	checkGEMMArgs(transA, pb.transB, m, n, k, a, pb.src, c)
	if m == 0 || n == 0 {
		return
	}
	scaleC(c[:m*n], beta)
	if k == 0 || alpha == 0 {
		return
	}
	p.run(transA, pb.transB, m, n, k, alpha, a, pb.src, pb.buf, nil, c, true)
}

// check panics unless pb can serve a call named op with op(B) k×n.
func (pb *PackedB) check(op string, n, k int) {
	if pb == nil {
		panic("kernels: " + op + " with nil PackedB")
	}
	if !pb.Matches(pb.transB, n, k) {
		panic(fmt.Sprintf("kernels: %s operand packed for n=%d k=%d nr=%d, called with n=%d k=%d nr=%d — repack required",
			op, pb.n, pb.k, pb.nr, n, k, gemmNR))
	}
}

// ---------------------------------------------------------------------------
// Pack cache.

// packEntry snapshots one slot of the cache: the PackedB handed out for
// generation gen, un-built after the generation's first use. stale says a
// pack of this shape had been built at an earlier generation, so building
// this one is a rebuild rather than a cold miss.
type packEntry struct {
	gen   uint64
	pb    *PackedB
	stale bool
}

// PackCache caches one PackedB per transpose orientation of a weight
// buffer, invalidated by a generation counter that the owner bumps on
// every mutation (nn.Param bumps it from the optimizer step). Panels are
// built when a generation is used a second time: the rule keys on the reuse
// the cache observes in its own traffic, so a weight that is consumed once
// per generation (a plain training step) never pays for, or holds, a
// whole-matrix copy, and one that is reused (accumulation, recompute, eval,
// serving) packs once, on its second use. Lookups are lock-free; concurrent
// readers that miss simultaneously both repack — the duplicate work is
// benign and both packs are identical, so whichever Store lands last wins
// with no torn state.
type PackCache struct {
	e [2]atomic.Pointer[packEntry]
}

// Get returns op(B) for generation gen as the operand of a GEMMPacked call
// on route p: the cached pack when one is current; else, on the first use
// of this generation (or shape, or micro-kernel backend), an un-built
// PackedB that makes the call pack per use; and on the second, a pack built
// now and cached. The forced fused route is the pre-packed route by
// definition and always builds.
func (pc *PackCache) Get(p GEMMPath, transB bool, n, k int, b []float32, gen uint64) *PackedB {
	return pc.get(transB, n, k, b, gen, p == GEMMPathFused)
}

// Warm is Get for a caller that knows the reuse is coming (serving warm-up
// over frozen weights): it builds the pack at once, so every later lookup
// of this generation is a hit.
func (pc *PackCache) Warm(transB bool, n, k int, b []float32, gen uint64) *PackedB {
	return pc.get(transB, n, k, b, gen, true)
}

func (pc *PackCache) get(transB bool, n, k int, b []float32, gen uint64, build bool) *PackedB {
	slot := &pc.e[0]
	if transB {
		slot = &pc.e[1]
	}
	e := slot.Load()
	known := e != nil && e.pb.Matches(transB, n, k)
	current := known && e.gen == gen
	if current && e.pb.buf != nil {
		packCacheHits.Inc()
		return e.pb
	}
	stale := known && (e.stale || e.pb.buf != nil)
	var pb *PackedB
	if !current && !build {
		packCacheDeferred.Inc()
		pb = describeWeight(transB, n, k, b)
	} else {
		if stale {
			// The optimizer moved the weights since panels were last built.
			packCacheRebuilds.Inc()
		} else {
			packCacheMisses.Inc()
		}
		pb = PackWeight(transB, n, k, b)
	}
	slot.Store(&packEntry{gen: gen, pb: pb, stale: stale})
	return pb
}
