package kernels

// Cache-blocked packed GEMM, BLIS-style. The operand matrices are copied
// into contiguous packed panels once per cache block — handling all four
// transpose combinations (and the alpha scale) at pack time — so a single
// register-tiled micro-kernel serves every GEMM the training graph emits.
//
// Blocking hierarchy for C = op(A)·op(B):
//
//	for io over M by gemmStripe:              bound packed-A scratch
//	  for pc over K by gemmKC:                depth block
//	    pack A[io:io+ms][pc:pc+kcb]           mr-row micro-panels, ×alpha
//	    for jc over N by gemmNC:              column block
//	      pack B[pc:pc+kcb][jc:jc+ncb]        nr-column micro-panels
//	      for each (mc row block × column segment) tile, in parallel:
//	        for jr by nr, ir by mr:           micro-tiles
//	          C[ir:ir+mr][jr:jr+nr] += Apanel·Bpanel   (micro-kernel)
//
// The packed A block (gemmMC×gemmKC) stays resident in L2 while micro-
// panels of B stream through L1; C tiles live in registers inside the
// micro-kernel. Tiles are distributed over the persistent worker pool via
// an atomic counter (parallel.go), and every tile of C is written by
// exactly one worker with a fixed loop order, so results are bitwise
// deterministic regardless of scheduling.
const (
	gemmMC = 120  // row block; every table entry's mr divides it (checkKernel)
	gemmKC = 256  // depth block: packed A block is 120×256×4 B ≈ 120 KiB (L2-resident)
	gemmNC = 2048 // column block: packed B panel is 256×2048×4 B = 2 MiB (streams via L3)

	// gemmStripe bounds the packed-A scratch for very tall matrices;
	// multiple of gemmMC.
	gemmStripe = 3840

	// smallGEMMFlops: below this, packing overhead outweighs blocking
	// gains and GEMM dispatches to the naive reference path instead.
	smallGEMMFlops = 1 << 15
)

// gemmBlocked computes C = alpha·op(A)·op(B) + beta·C with cache blocking
// and packing: the per-call schedule every blocked route runs, and the
// oracle of auto's short stripes (gemmShortStripe). Its regions run on
// pool; BatchedGEMM passes serial so per-matrix GEMMs never nest
// dispatch. At beta = 0 nothing clears C up front: every tile of a
// stripe's first depth block clears its own region just before the
// micro-kernel first accumulates into it; other betas scale C first.
//
// The B panels come from one of two sources. panels == nil packs each
// (pc, jc) block of b into pooled, cache-resident scratch. Otherwise panels
// is op(B) packed whole by PackWeight and the packB pass is skipped; the
// pack stores full-width depth blocks, so the NC loop — which exists to
// bound packB scratch — collapses to one column block (column segmentation
// in gemmState.run still splits wide tile grids for load balance). Both
// sources hold the same panel bytes and every C element sees the same
// micro-kernel schedule, so the result is bitwise the same.
//
// ep, when non-nil, is folded into the write-back (gemm_epilogue.go): the
// tile grid of each stripe's final depth block applies the element-wise
// part to every tile right after the micro-kernel finishes it, and LN rows
// are finalized once the stripe's grid completes, while they are still
// warm. The finalize always runs on the pool, so ep never comes with serial.
//
// lda, ldb and ldc are the operands' row strides (GEMMPath.run); panels,
// when set, were packed from a contiguous op(B).
func gemmBlocked(pool *Pool, transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, panels []float32, beta float32, ep *Epilogue, c []float32, ldc int) {
	clearC := beta == 0
	if !clearC {
		scaleC(c, m, n, ldc, beta)
	}
	mr, nr := gemmMR, gemmNR
	apN, bpN := blockedScratch(m, n, k)
	ap := getScratch(apN)
	nc, panelW := n, panelWidth(n, nr)
	var bp *[]float32
	if panels == nil {
		nc = gemmNC
		bp = getScratch(bpN)
	}
	g := gemmState{ep: ep}
	for io := 0; io < m; io += gemmStripe {
		ms := min(gemmStripe, m-io)
		for pc := 0; pc < k; pc += gemmKC {
			kcb := min(gemmKC, k-pc)
			g.epOn = pc+gemmKC >= k
			g.clearC = clearC && pc == 0
			packA(pool, transA, *ap, a, lda, io, ms, pc, kcb, alpha, mr)
			for jc := 0; jc < n; jc += nc {
				ncb := min(nc, n-jc)
				var block []float32
				if bp != nil {
					packB(pool, transB, *bp, b, ldb, jc, ncb, pc, kcb, nr)
					block = *bp
				} else {
					block = panels[panelW*pc:]
				}
				g.run(pool, c, *ap, block, ldc, io, ms, jc, ncb, kcb)
			}
		}
		if ep != nil && ep.Kind == EpilogueBiasResidualLayerNorm {
			ep.finalizeLNRows(pool, c, io, ms, n)
		}
	}
	putScratch(ap)
	if bp != nil {
		putScratch(bp)
	}
}

// blockedScratch is the float count of the packed A block and of the
// packed B block gemmBlocked draws for an m×n×k product (B only without
// pre-built panels).
func blockedScratch(m, n, k int) (ap, bp int) {
	mr, nr, kc0 := gemmMR, gemmNR, min(k, gemmKC)
	return (min(m, gemmStripe) + mr - 1) / mr * mr * kc0, panelWidth(min(n, gemmNC), nr) * kc0
}

// edgeScratch is the float count of the side buffer a sweep over m rows
// and n columns draws (microColumn): one micro-tile when some tile lacks
// columns, or lacks rows and the entry has no row-edge body; 0 when every
// tile runs in place.
func edgeScratch(m, n int) int {
	if n%gemmNR != 0 || m%gemmMR != 0 && activeKernel.f32Rows == nil {
		return microTileMax
	}
	return 0
}

// gemmState holds the operands of the tile grid of one (stripe, pc, jc)
// step. Work item t maps to (row block t/segs, column segment t%segs);
// items touch disjoint regions of C.
type gemmState struct {
	c       []float32
	ap, bp  []float32
	ldc     int
	i0, ms  int // stripe origin row and height
	jc, ncb int // column-block origin and width
	kcb     int
	segs    int // column segments per row block
	segCols int // columns per segment (multiple of nr)

	// Fused epilogue (gemm_epilogue.go): when ep is set and epOn marks
	// the final depth block, each tile applies the element-wise epilogue
	// right after its micro-tile sweep, while the tile is cache-hot.
	ep   *Epilogue
	epOn bool

	// clearC marks a beta = 0 product's first depth block: each tile
	// zeroes its region of C before accumulating into it.
	clearC bool
}

var gemmBodies argsPool[gemmState]

func (g *gemmState) run(pool *Pool, c, ap, bp []float32, ldc, i0, ms, jc, ncb, kcb int) {
	icBlocks := (ms + gemmMC - 1) / gemmMC
	segs, segCols := 1, ncb
	target := 1
	if pool != serial {
		target = piecesPer(pool, icBlocks, 3)
	}
	if target > 1 {
		// Few row blocks: split columns too, keeping ≥ ~3 items per
		// worker for dynamic balance but segments at least two
		// micro-panels wide so packed B reuse stays intact.
		nr := gemmNR
		if maxSegs := max(ncb/(2*nr), 1); target > maxSegs {
			target = maxSegs
		}
		segCols = max((((ncb+target-1)/target+nr-1)/nr)*nr, nr)
		segs = (ncb + segCols - 1) / segCols
	}
	g.c, g.ap, g.bp = c, ap, bp
	g.ldc, g.i0, g.ms, g.jc, g.ncb, g.kcb = ldc, i0, ms, jc, ncb, kcb
	g.segs, g.segCols = segs, segCols
	items := icBlocks * segs
	if pool != serial {
		reserveScratch(concurrentPieces(pool, items, 1), edgeScratch(ms, ncb))
		gemmBodies.run(pool, items, 1, *g, gemmTiles)
	} else {
		gemmTiles(g, 0, items)
	}
}

func gemmTiles(g *gemmState, lo, hi int) {
	for t := lo; t < hi; t++ {
		g.tile(t)
	}
}

// tile computes one row-block × column-segment piece of C from the packed
// panels, keeping the A block hot in L2.
func (g *gemmState) tile(t int) {
	i := (t / g.segs) * gemmMC
	iEnd := min(i+gemmMC, g.ms)
	j0 := (t % g.segs) * g.segCols
	jEnd := min(j0+g.segCols, g.ncb)
	if g.clearC {
		for r := g.i0 + i; r < g.i0+iEnd; r++ {
			clear(g.c[r*g.ldc+g.jc+j0 : r*g.ldc+g.jc+jEnd])
		}
	}
	microTileSweep(g.c[g.i0*g.ldc+g.jc:], g.ldc, g.ap, g.bp, g.kcb, i, iEnd, j0, jEnd, g.ms, g.ncb)
	if g.epOn && g.ep != nil {
		g.ep.applyTile(g.c, g.ldc, g.i0+i, g.i0+iEnd, g.jc+j0, g.jc+jEnd)
	}
}

// shortStripeRows is the tallest product the short-stripe route takes: two
// row blocks, so a B micro-panel serves at most 2·gemmMC/mr micro-kernel
// row passes (20 at mr = 12) before the sweep moves on. Below that, a
// packed B panel is read too few times to repay its copy and the fork/join
// around packB; above it the in-place read of B loses (DESIGN.md §7,
// "Short stripes").
const shortStripeRows = 2 * gemmMC

// gemmShortStripe is auto's first-use route for a short stripe
// (m ≤ shortStripeRows, no pre-built panels, a pool to run on): the
// same micro-kernel calls as gemmBlocked, without its block-wide packB
// pass. A is packed
// for the whole depth up front, then one pool region of column segments
// runs the product: each segment sweeps every row block through every
// depth block in order, reading a non-transposed B in place (row stride ldb)
// and packing a transposed one — and an in-place edge panel, which must not
// read past the operand — one micro-panel at a time into its own scratch.
// That is one fork/join for the product instead of three per depth block,
// and no packed B panel crosses cores. Every C element sees the same
// micro-kernel fold over the same A panel and B values in the same depth
// order as on gemmBlocked, beta = 0 clears and the epilogue tail run per
// segment as they run per tile there, so the result is bitwise
// gemmBlocked's (GEMMPathBlocked is the oracle).
func gemmShortStripe(pool *Pool, transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, ep *Epilogue, c []float32, ldc int) {
	gemmShortStripes.Inc()
	if beta != 0 {
		scaleC(c, m, n, ldc, beta)
	}
	mr, nr := gemmMR, gemmNR
	mp := (m + mr - 1) / mr * mr
	ap := getScratch(mp * k)
	for pc := 0; pc < k; pc += gemmKC {
		packA(pool, transA, (*ap)[mp*pc:], a, lda, 0, m, pc, min(gemmKC, k-pc), alpha, mr)
	}
	// About four segments per worker, for dynamic balance.
	panels, segs := (n+nr-1)/nr, piecesPer(pool, 1, 4)
	per := (panels + segs - 1) / segs // micro-panels per segment
	s := stripeState{c: c, ap: *ap, b: b, transB: transB, m: m, n: n, k: k, ldb: ldb, ldc: ldc, mp: mp,
		segCols: per * nr, clearC: beta == 0, ep: ep}
	items, bs := (panels+per-1)/per, 0
	if transB || n%nr != 0 {
		bs = nr * gemmKC // a segment's B micro-panel (stripeSegments)
	}
	reserveScratch(concurrentPieces(pool, items, 1), bs, edgeScratch(m, n))
	stripeBodies.run(pool, items, 1, s, stripeSegments)
	putScratch(ap)
	if ep != nil && ep.Kind == EpilogueBiasResidualLayerNorm {
		ep.finalizeLNRows(pool, c, 0, m, n)
	}
}

// stripeState holds the operands of a short stripe's region: work item t
// is the column segment [t·segCols, (t+1)·segCols) over all m rows.
type stripeState struct {
	c, ap, b []float32
	transB   bool
	m, n, k  int
	ldb, ldc int
	mp       int // rows of a packed A depth block (m rounded up to mr)
	segCols  int // multiple of nr
	clearC   bool
	ep       *Epilogue
}

var stripeBodies argsPool[stripeState]

func stripeSegments(s *stripeState, lo, hi int) {
	nr := gemmNR
	var bs, tmp *[]float32
	for t := lo; t < hi; t++ {
		j0 := t * s.segCols
		jEnd := min(j0+s.segCols, s.n)
		if s.clearC {
			for r := 0; r < s.m; r++ {
				clear(s.c[r*s.ldc+j0 : r*s.ldc+jEnd])
			}
		}
		for pc := 0; pc < s.k; pc += gemmKC {
			kcb := min(gemmKC, s.k-pc)
			ap := s.ap[s.mp*pc:]
			for jr := j0; jr < jEnd; jr += nr {
				nw := min(nr, s.n-jr)
				var bpanel []float32
				ldb := nr
				if s.transB || nw < nr {
					if bs == nil {
						bs = getScratch(nr * gemmKC)
					}
					packB(serial, s.transB, *bs, s.b, s.ldb, jr, nw, pc, kcb, nr)
					bpanel = *bs
				} else {
					bpanel, ldb = s.b[pc*s.ldb+jr:], s.ldb
				}
				tmp = microColumn(s.c[jr:], s.ldc, ap, bpanel, ldb, kcb, 0, s.m, s.m, nw, tmp)
			}
		}
		if s.ep != nil {
			s.ep.applyTile(s.c, s.ldc, 0, s.m, j0, jEnd)
		}
	}
	if bs != nil {
		putScratch(bs)
	}
	if tmp != nil {
		putScratch(tmp)
	}
}

// microTileSweep accumulates C[ir0:irEnd][jr0:jrEnd] += Apanels·Bpanels
// for one depth block of kcb packed steps. c addresses the full packed
// region: element (r, j) lives at c[r*ldc+j], ap/bp hold mr-row and
// nr-column micro-panels of ms live rows and ncb live columns (panel i
// at ap[i*mr*kcb:], panel j at bp[j*nr*kcb:], zero-padded). ir0/jr0 must
// be multiples of mr/nr.
func microTileSweep(c []float32, ldc int, ap, bp []float32, kcb, ir0, irEnd, jr0, jrEnd, ms, ncb int) {
	nr := gemmNR
	var tmp *[]float32
	for jr := jr0; jr < jrEnd; jr += nr {
		tmp = microColumn(c[jr:], ldc, ap, bp[(jr/nr)*nr*kcb:], nr, kcb, ir0, irEnd, ms, min(nr, ncb-jr), tmp)
	}
	if tmp != nil {
		putScratch(tmp)
	}
}

// microColumn accumulates C[ir0:irEnd][0:nw] += Apanels·bpanel for one
// depth block: the micro-kernel down one B micro-panel, whose depth step p
// is bpanel[p*ldb:p*ldb+nr] (ldb = nr on packed panels). The micro-kernel
// is a continuation fold (its accumulators seed from C), so the sweep
// preserves that property: a depth range split across calls folds
// bitwise-identically to one call. Full tiles go straight to the
// micro-kernel, and so do row-edge tiles (mw < mr live rows) of all nr
// columns when the entry has a row-edge body (f32Rows), which folds only
// the live rows into C in place. Other edge tiles land in a scratch side
// buffer first (a plain local array would escape through the indirect
// kern call and allocate per tile) that is seeded with the live C region
// and copied back afterwards — dead B lanes are zero padding or, read in
// place, the operand's own columns, and either way they only feed dead
// lanes, which never leak into C; the row-edge body, when there is one,
// folds only the live rows there too. tmp is that buffer, fetched on
// first need and returned for the next call; the caller puts it back.
func microColumn(c []float32, ldc int, ap, bpanel []float32, ldb, kcb, ir0, irEnd, ms, nw int, tmp *[]float32) *[]float32 {
	mr, nr := gemmMR, gemmNR
	kern, rowsKern := activeKernel.f32, activeKernel.f32Rows
	for ir := ir0; ir < irEnd; ir += mr {
		mw := min(mr, ms-ir)
		apanel := ap[(ir/mr)*mr*kcb:]
		cc := c[ir*ldc:]
		edge := mw < mr && rowsKern != nil
		if nw == nr && (mw == mr || edge) {
			if edge {
				rowsKern(kcb, apanel, bpanel, ldb, cc, ldc, mw)
			} else {
				kern(kcb, apanel, bpanel, ldb, cc, ldc)
			}
			continue
		}
		if tmp == nil {
			tmp = getScratch(microTileMax)
		}
		t := (*tmp)[:mr*nr]
		clear(t)
		for r := 0; r < mw; r++ {
			copy(t[r*nr:r*nr+nw], cc[r*ldc:])
		}
		if edge {
			rowsKern(kcb, apanel, bpanel, ldb, t, nr, mw)
		} else {
			kern(kcb, apanel, bpanel, ldb, t, nr)
		}
		for r := 0; r < mw; r++ {
			copy(cc[r*ldc:r*ldc+nw], t[r*nr:])
		}
	}
	return tmp
}

// ---------------------------------------------------------------------------
// Packing.

// packAArgs are the operands of packing op(A)[io:io+ms][pc:pc+kcb] into
// mr-row micro-panels: panel pi holds rows [pi·mr, pi·mr+mr), laid out
// p-major (mr consecutive row entries per depth step) and scaled by alpha.
// Short panels at the bottom are zero-padded.
type packAArgs struct {
	dst, src []float32
	transA   bool
	row0     int // io: first op(A) row of the stripe
	rows     int // ms
	pc, kcb  int
	ld       int // A's row stride: ≥ k when !transA (A is M×K), ≥ m when transA (A is K×M)
	alpha    float32
	mr       int
}

var packABodies argsPool[packAArgs]

func packA(pool *Pool, transA bool, dst, a []float32, lda, io, ms, pc, kcb int, alpha float32, mr int) {
	s := packAArgs{dst: dst, src: a, transA: transA, row0: io, rows: ms, pc: pc, kcb: kcb, ld: lda, alpha: alpha, mr: mr}
	panels := (ms + mr - 1) / mr
	if pool != serial {
		packABodies.run(pool, panels, 8, s, packARange)
	} else {
		packARange(&s, 0, panels)
	}
}

func packARange(s *packAArgs, lo, hi int) {
	mr, kcb, alpha := s.mr, s.kcb, s.alpha
	packT4 := activeKernel.packT4
	for pi := lo; pi < hi; pi++ {
		dst := s.dst[pi*mr*kcb : (pi+1)*mr*kcb]
		r0 := pi * mr
		rows := min(mr, s.rows-r0)
		if s.transA {
			// A stored K×M: op(A)[i][p] = a[p·ld + i] — the mr rows
			// of a panel are contiguous in memory, so each depth step is
			// a copy, or one rounded multiply per element (scaleRow's
			// vector body): the bytes of the scalar alpha·a loop.
			base := s.pc*s.ld + s.row0 + r0
			for p := 0; p < kcb; p++ {
				src := s.src[base+p*s.ld : base+p*s.ld+rows]
				d := dst[p*mr : (p+1)*mr]
				if alpha == 1 {
					copy(d, src)
				} else {
					scaleRow(d[:rows], src, alpha)
				}
				clear(d[rows:])
			}
			continue
		}
		// A stored M×K: op(A)[i][p] = a[i·ld + pc + p] — mr strided
		// read streams, sequential writes.
		base := (s.row0+r0)*s.ld + s.pc
		rv := 0 // rows the vectorised 4-row strips covered
		if packT4 != nil {
			for ; rv+4 <= rows; rv += 4 {
				packT4(&dst[rv], int64(mr), &s.src[base+rv*s.ld], int64(s.ld), int64(kcb), alpha, true)
			}
			if rv == mr {
				continue
			}
		}
		for p := 0; p < kcb; p++ {
			d := dst[p*mr:]
			for r := rv; r < rows; r++ {
				d[r] = alpha * s.src[base+r*s.ld+p]
			}
			for r := rows; r < mr; r++ {
				d[r] = 0
			}
		}
	}
}

// packBArgs are the operands of packing op(B)[pc:pc+kcb][jc:jc+ncb] into
// nr-column micro-panels laid out p-major (nr consecutive column entries
// per depth step), zero-padding short panels on the right.
type packBArgs struct {
	dst, src []float32
	transB   bool
	jc, cols int // column-block origin and width (ncb)
	pc, kcb  int
	ld       int // B's row stride: ≥ n when !transB (B is K×N), ≥ k when transB (B is N×K)
	nr       int
}

var packBBodies argsPool[packBArgs]

func packB(pool *Pool, transB bool, dst, b []float32, ldb, jc, ncb, pc, kcb, nr int) {
	s := packBArgs{dst: dst, src: b, transB: transB, jc: jc, cols: ncb, pc: pc, kcb: kcb, ld: ldb, nr: nr}
	panels := (ncb + nr - 1) / nr
	if pool != serial {
		packBBodies.run(pool, panels, 8, s, packBRange)
	} else {
		packBRange(&s, 0, panels)
	}
}

func packBRange(s *packBArgs, lo, hi int) {
	nr, kcb := s.nr, s.kcb
	packT4 := activeKernel.packT4
	for pj := lo; pj < hi; pj++ {
		dst := s.dst[pj*nr*kcb : (pj+1)*nr*kcb]
		j0 := pj * nr
		cols := min(nr, s.cols-j0)
		if !s.transB {
			// B stored K×N: each depth step is a contiguous row copy.
			base := s.pc*s.ld + s.jc + j0
			if cols == nr {
				for p := 0; p < kcb; p++ {
					copy(dst[p*nr:p*nr+nr], s.src[base+p*s.ld:])
				}
				continue
			}
			for p := 0; p < kcb; p++ {
				d := dst[p*nr : p*nr+nr]
				copy(d[:cols], s.src[base+p*s.ld:])
				for j := cols; j < nr; j++ {
					d[j] = 0
				}
			}
			continue
		}
		// B stored N×K: op(B)[p][j] = b[(jc+j)·ld + pc + p] — each
		// packed column is a contiguous read.
		jv := 0 // columns the vectorised 4-row strips covered
		if packT4 != nil {
			for ; jv+4 <= cols; jv += 4 {
				packT4(&dst[jv], int64(nr), &s.src[(s.jc+j0+jv)*s.ld+s.pc], int64(s.ld), int64(kcb), 1, false)
			}
		}
		for j := jv; j < cols; j++ {
			src := s.src[(s.jc+j0+j)*s.ld+s.pc:]
			for p := 0; p < kcb; p++ {
				dst[p*nr+j] = src[p]
			}
		}
		for j := cols; j < nr; j++ {
			for p := 0; p < kcb; p++ {
				dst[p*nr+j] = 0
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Portable micro-kernel.

// microKernel4x4 computes C[0:4][0:4] += Apanel·Bpanel over kc depth steps
// (B's step p at b[p*ldb:]) with 16 independent scalar accumulators, seeded from C so the fold
// continues across kernel invocations: splitting the depth range over
// multiple calls is bitwise-identical to one call over the whole range
// (the gradient-accumulation equivalence depends on this). It is the
// fallback for builds without the SIMD kernel and the cross-check oracle
// for it.
func microKernel4x4(kc int, a, b []float32, ldb int, c []float32, ldc int) {
	r0, r1, r2, r3 := c[0:4], c[ldc:ldc+4], c[2*ldc:2*ldc+4], c[3*ldc:3*ldc+4]
	c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
	c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
	c20, c21, c22, c23 := r2[0], r2[1], r2[2], r2[3]
	c30, c31, c32, c33 := r3[0], r3[1], r3[2], r3[3]
	a = a[:4*kc]
	for p := 0; len(a) >= 4; p += ldb {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		bp := b[p : p+4]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a = a[4:]
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
}
