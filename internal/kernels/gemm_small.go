package kernels

// The small-GEMM compute core: a register-tiled sweep over packed
// micro-panels, shared by the blocked single-GEMM tile grid
// (gemmState.tile) and the batched blocked engine's per-matrix work items
// (gemm_batched_blocked.go). Factoring it out of gemmState is what lets
// the per-head n×n×dHead attention products run through the SIMD
// micro-kernel with no blocked-state machinery around them: a batched
// work item is just beta-scale + this sweep per depth block.

// microTileSweep accumulates C[ir0:irEnd][jr0:jrEnd] += Apanels·Bpanels
// for one depth block of kcb packed steps. c addresses the full packed
// region: element (r, j) lives at c[r*ldc+j], ap/bp hold mr-row and
// nr-column micro-panels of ms live rows and ncb live columns (panel i
// at ap[i*mr*kcb:], panel j at bp[j*nr*kcb:], zero-padded). ir0/jr0 must
// be multiples of mr/nr. The micro-kernel is a continuation fold (its
// accumulators seed from C), so the sweep preserves that property: a
// depth range split across calls folds bitwise-identically to one call.
// Full tiles go straight to the micro-kernel; edge tiles land in a
// pooled side buffer first (a plain local array would escape through the
// indirect kern call and allocate per tile) that is seeded with the live
// C region and copied back afterwards — panel padding is zero and a
// zero-seeded fma lane stays exactly zero, so the dead lanes never leak
// into C.
func microTileSweep(c []float32, ldc int, ap, bp []float32, kcb, ir0, irEnd, jr0, jrEnd, ms, ncb int) {
	mr, nr := gemmMR, gemmNR
	kern := activeKernel.f32
	var tmp *[]float32
	for jr := jr0; jr < jrEnd; jr += nr {
		nw := min(nr, ncb-jr)
		bpanel := bp[(jr/nr)*nr*kcb:]
		for ir := ir0; ir < irEnd; ir += mr {
			mw := min(mr, ms-ir)
			apanel := ap[(ir/mr)*mr*kcb:]
			cc := c[ir*ldc+jr:]
			if mw == mr && nw == nr {
				kern(kcb, apanel, bpanel, cc, ldc)
				continue
			}
			if tmp == nil {
				tmp = microTilePool.Get().(*[]float32)
			}
			t := (*tmp)[:mr*nr]
			clear(t)
			for r := 0; r < mw; r++ {
				copy(t[r*nr:r*nr+nw], cc[r*ldc:])
			}
			kern(kcb, apanel, bpanel, t, nr)
			for r := 0; r < mw; r++ {
				copy(cc[r*ldc:r*ldc+nw], t[r*nr:])
			}
		}
	}
	if tmp != nil {
		microTilePool.Put(tmp)
	}
}
