package kernels

import (
	"fmt"
	"sync/atomic"
)

// Pre-packed B operands. A weight matrix used as the B operand of many
// GEMMs (every Linear forward and dX-backward reuses the same W until the
// optimizer writes it) can be packed into micro-panels once and reused,
// skipping the packB copy on every call. The paper's Table 2b attributes
// most of BERT's iteration time to exactly these weight GEMMs, and packing
// is pure overhead on the hot path when the operand is static.
//
// Layout: for each gemmKC depth block pc, all ceil(n/nr) nr-column
// micro-panels of op(B)[pc:pc+kcb][0:n] are stored contiguously, zero-
// padded on the right — byte-for-byte what packB produces for a full-width
// column block. Block pc starts at offset panelW·pc (panelW = ceil(n/nr)·nr),
// so GEMMPacked can hand gemmState.run the same panel geometry the
// on-the-fly path uses and hit the identical micro-kernel schedule:
// results are bitwise equal to GEMM's blocked path on the same backend.

// PackedB is a weight matrix packed once into micro-panels for reuse as
// the B operand of GEMMPacked. It is immutable after PackWeight returns
// and safe for concurrent readers.
type PackedB struct {
	transB bool
	n, k   int
	nr     int       // micro-panel width the pack was built for
	panelW int       // ceil(n/nr)*nr
	buf    []float32 // panelW*k floats of packed panels
	src    []float32 // original operand, for the small-GEMM fallback
}

// PackWeight packs op(B) (K×N; stored K×N when transB is false, N×K when
// true) into KC-blocked micro-panels. The pack costs one pass over the
// matrix and one extra copy of it in memory; amortize it by reusing the
// result across calls (see PackCache).
func PackWeight(transB bool, n, k int, b []float32) *PackedB {
	if n < 0 || k < 0 {
		panic(fmt.Sprintf("kernels: PackWeight with negative dims n=%d k=%d", n, k))
	}
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: PackWeight B buffer %d < k*n=%d (transB=%v)", len(b), k*n, transB))
	}
	nr := gemmNR
	panelW := (n + nr - 1) / nr * nr
	pb := &PackedB{
		transB: transB,
		n:      n, k: k,
		nr:     nr,
		panelW: panelW,
		buf:    make([]float32, panelW*k),
		src:    b,
	}
	for pc := 0; pc < k; pc += gemmKC {
		kcb := min(gemmKC, k-pc)
		packB(transB, pb.buf[panelW*pc:panelW*pc+panelW*kcb], b, 0, n, pc, kcb, n, k, nr, true)
	}
	return pb
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

// GEMMPacked computes C = alpha·op(A)·pb + beta·C, where pb is op(B)
// packed by PackWeight. Semantics match GEMM exactly — same quick
// returns, same panics, and bitwise-identical results on the same
// backend — minus the per-call packB pass.
func GEMMPacked(transA bool, m, n, k int, alpha float32, a []float32, pb *PackedB, beta float32, c []float32) {
	if pb == nil {
		panic("kernels: GEMMPacked with nil PackedB")
	}
	if !pb.Matches(pb.transB, n, k) {
		panic(fmt.Sprintf("kernels: GEMMPacked operand packed for n=%d k=%d nr=%d, called with n=%d k=%d nr=%d — repack required",
			pb.n, pb.k, pb.nr, n, k, gemmNR))
	}
	checkGEMMArgs(transA, pb.transB, m, n, k, a, pb.src, c)
	if m == 0 || n == 0 {
		return
	}
	scaleC(c[:m*n], beta)
	if k == 0 || alpha == 0 {
		return
	}
	switch CurrentGEMMPath() {
	case GEMMPathNaive:
		gemmNaivePar(transA, pb.transB, m, n, k, alpha, a, pb.src, c)
	case GEMMPathBlocked:
		// Forced blocked-without-prepack: ignore the cached panels and
		// pack the raw operand per call, like GEMM does.
		gemmBlocked(transA, pb.transB, m, n, k, alpha, a, pb.src, c, true)
	case GEMMPathFused:
		gemmPackedBlocked(transA, m, n, k, alpha, a, pb, c)
	default:
		if 2*m*n*k < smallGEMMFlops {
			// Same dispatch as GEMM: packing never paid for itself down
			// here, so the pack keeps the raw operand around for the
			// naive path.
			gemmNaiveSerial(transA, pb.transB, m, n, k, alpha, a, pb.src, c)
			return
		}
		gemmPackedBlocked(transA, m, n, k, alpha, a, pb, c)
	}
}

// gemmPackedBlocked is gemmBlocked with the packB pass deleted: only A is
// packed per (stripe, pc) step, and the pre-packed full-width B block is
// handed to the tile grid directly. There is no NC loop — NC existed to
// bound packB scratch, and column segmentation in gemmState.run already
// splits wide tile grids for load balance.
func gemmPackedBlocked(transA bool, m, n, k int, alpha float32, a []float32, pb *PackedB, c []float32) {
	mr := gemmMR
	kc0 := min(k, gemmKC)
	ap := getScratch(((min(m, gemmStripe) + mr - 1) / mr) * mr * kc0)
	g := gemmStatePool.Get().(*gemmState)
	for io := 0; io < m; io += gemmStripe {
		ms := min(gemmStripe, m-io)
		for pc := 0; pc < k; pc += gemmKC {
			kcb := min(gemmKC, k-pc)
			packA(transA, *ap, a, io, ms, pc, kcb, m, k, alpha, mr, true)
			g.run(c, *ap, pb.buf[pb.panelW*pc:], n, io, ms, 0, n, kcb, true)
		}
	}
	gemmStatePool.Put(g)
	putScratch(ap)
}

// ---------------------------------------------------------------------------
// Pack cache.

// packEntry snapshots one cached pack with the parameter generation it was
// built from.
type packEntry struct {
	gen uint64
	pb  *PackedB
}

// PackCache caches one PackedB per transpose orientation of a weight
// buffer, invalidated by a generation counter that the owner bumps on
// every mutation (nn.Param bumps it from the optimizer step). Lookups are
// lock-free; concurrent readers that miss simultaneously both repack —
// the duplicate work is benign and both packs are identical, so whichever
// Store lands last wins with no torn state.
type PackCache struct {
	e  [2]atomic.Pointer[packEntry]
	i8 [2]atomic.Pointer[packInt8Entry]
}

// packInt8Entry snapshots one cached int8 pack with the parameter
// generation it was quantized from.
type packInt8Entry struct {
	gen uint64
	pb  *PackedBInt8
}

// Get returns a pack of op(B) valid for generation gen, rebuilding it if
// the cached one is missing, stale, or was built for a different shape or
// micro-kernel backend.
func (pc *PackCache) Get(transB bool, n, k int, b []float32, gen uint64) *PackedB {
	slot := &pc.e[0]
	if transB {
		slot = &pc.e[1]
	}
	e := slot.Load()
	if e != nil && e.gen == gen && e.pb.Matches(transB, n, k) {
		packCacheHits.Inc()
		return e.pb
	}
	if e != nil && e.pb.Matches(transB, n, k) {
		// Same shape and backend, stale generation: the optimizer moved
		// the weights since the pack was built.
		packCacheRebuilds.Inc()
	} else {
		packCacheMisses.Inc()
	}
	pb := PackWeight(transB, n, k, b)
	slot.Store(&packEntry{gen: gen, pb: pb})
	return pb
}

// GetInt8 returns an int8 quantized pack of op(B) valid for generation
// gen, re-quantizing if the cached one is missing, stale, or was built
// for a different shape. The int8 layout is backend-independent (fixed
// 4×16 micro-tile), so unlike Get there is no micro-kernel dimension to
// the match.
func (pc *PackCache) GetInt8(transB bool, n, k int, b []float32, gen uint64) *PackedBInt8 {
	slot := &pc.i8[0]
	if transB {
		slot = &pc.i8[1]
	}
	e := slot.Load()
	if e != nil && e.gen == gen && e.pb.Matches(transB, n, k) {
		int8PackCacheHits.Inc()
		return e.pb
	}
	if e != nil && e.pb.Matches(transB, n, k) {
		int8PackCacheRebuilds.Inc()
	} else {
		int8PackCacheMisses.Inc()
	}
	pb := PackWeightInt8(transB, n, k, b)
	slot.Store(&packInt8Entry{gen: gen, pb: pb})
	return pb
}

// Invalidate drops both cached orientations (e.g. when the owning buffer
// is replaced rather than mutated in place).
func (pc *PackCache) Invalidate() {
	pc.e[0].Store(nil)
	pc.e[1].Store(nil)
	pc.i8[0].Store(nil)
	pc.i8[1].Store(nil)
}
