package kernels

import (
	"fmt"
	"sync"
)

// Fused GEMM epilogues. The paper's operator-fusion study (Section 6.1)
// shows that once the GEMMs are fast, BERT's memory-bound tail operators —
// bias add, GeLU, residual add, LayerNorm — cap achieved throughput
// because every one of them re-reads and re-writes the full activation
// from DRAM. An epilogue folds that tail into the GEMM's own write-back:
// the element-wise part is applied per output tile while the tile is still
// cache-hot (immediately after the last depth block accumulates into it),
// and the LayerNorm row reduction runs as a finalize pass over the
// just-completed stripe, so the activation never makes a separate
// DRAM round trip.
//
// Numerics contract: the fused write-back performs the exact same float32
// expressions, in the same order, as the unfused reference sequence
// (AddBias → GeLUForward / AddBias → residual add → LayerNormForward),
// sharing the helpers addRow, geluSpan and layerNormRows. The
// engine never contracts a+b+c or reorders row reductions, so fused and
// unfused results are bitwise identical on the same micro-kernel backend —
// an invariant the audit harness pins (internal/audit).

// EpilogueKind selects which tail-operator sequence a GEMM epilogue fuses.
type EpilogueKind int32

const (
	// EpilogueNone applies no tail; the call behaves like GEMMPacked with
	// beta = 0.
	EpilogueNone EpilogueKind = iota
	// EpilogueBias adds a per-column bias: C[i][j] = acc + Bias[j].
	EpilogueBias
	// EpilogueBiasGeLU adds the bias then applies the exact GeLU:
	// C[i][j] = gelu(acc + Bias[j]). The pre-activation (acc + bias) is
	// optionally saved to X for the backward pass.
	EpilogueBiasGeLU
	// EpilogueBiasResidualLayerNorm adds bias and a residual skip input,
	// then layer-normalizes each completed row with the learned affine
	// transform: C[i] = LN(acc_i + Bias + Residual_i; Gamma, Beta, Eps).
	// The pre-LN rows and per-row statistics are optionally saved to
	// X/Mean/InvStd for the backward pass.
	EpilogueBiasResidualLayerNorm
)

// String names the kind for error messages and audit reports.
func (k EpilogueKind) String() string {
	switch k {
	case EpilogueNone:
		return "none"
	case EpilogueBias:
		return "bias"
	case EpilogueBiasGeLU:
		return "bias+gelu"
	case EpilogueBiasResidualLayerNorm:
		return "bias+residual+layernorm"
	}
	return "invalid"
}

// Epilogue describes the fused tail of one GEMM call. All slices are
// borrowed for the duration of the call; Save buffers (X, Mean, InvStd)
// may be nil when the caller does not need backward state (evaluation).
type Epilogue struct {
	Kind EpilogueKind

	// Bias is the per-output-column bias vector, length n. Required for
	// every kind except EpilogueNone.
	Bias []float32
	// Residual is the skip input added before LayerNorm, length m×n
	// (row-major, same leading dimension as C). LN kind only.
	Residual []float32
	// Gamma, Beta, Eps are the LayerNorm affine parameters (length n) and
	// variance epsilon. LN kind only.
	Gamma, Beta []float32
	Eps         float32

	// X, when non-nil (length m×n), receives the pre-activation: acc+bias
	// for EpilogueBiasGeLU (the GeLU backward input), acc+bias+residual
	// for the LN kind (the LayerNorm backward input).
	X []float32
	// Mean and InvStd, when non-nil (length m), receive the per-row LN
	// statistics for the backward pass. Both or neither must be set.
	Mean, InvStd []float32
}

// check validates the epilogue's buffers against the output shape; it
// panics on mismatch since a short buffer would corrupt training silently.
func (ep *Epilogue) check(m, n int) {
	switch ep.Kind {
	case EpilogueNone:
		return
	case EpilogueBias, EpilogueBiasGeLU:
	case EpilogueBiasResidualLayerNorm:
		if len(ep.Residual) != m*n {
			panic(fmt.Sprintf("kernels: Epilogue %s residual %d, want m*n=%d", ep.Kind, len(ep.Residual), m*n))
		}
		if len(ep.Gamma) != n || len(ep.Beta) != n {
			panic(fmt.Sprintf("kernels: Epilogue %s gamma=%d beta=%d, want n=%d", ep.Kind, len(ep.Gamma), len(ep.Beta), n))
		}
		if (ep.Mean != nil) != (ep.InvStd != nil) {
			panic("kernels: Epilogue LN must set Mean and InvStd together")
		}
		if ep.Mean != nil && (len(ep.Mean) != m || len(ep.InvStd) != m) {
			panic(fmt.Sprintf("kernels: Epilogue %s mean=%d invStd=%d, want m=%d", ep.Kind, len(ep.Mean), len(ep.InvStd), m))
		}
	default:
		panic(fmt.Sprintf("kernels: invalid EpilogueKind %d", int(ep.Kind)))
	}
	if len(ep.Bias) != n {
		panic(fmt.Sprintf("kernels: Epilogue %s bias %d, want n=%d", ep.Kind, len(ep.Bias), n))
	}
	if ep.X != nil && len(ep.X) != m*n {
		panic(fmt.Sprintf("kernels: Epilogue %s X save buffer %d, want m*n=%d", ep.Kind, len(ep.X), m*n))
	}
}

// GEMMPackedEpilogue computes C = alpha·op(A)·pb followed by the epilogue
// tail on route p, overwriting C (beta = 0 semantics: epilogues define the
// full output). pb is op(B) as PackWeight or PackCache returns it, as in
// GEMMPacked.
//
// The forced naive and blocked routes run the plain product and then the
// unfused reference tail (the differential comparators for the audit
// harness), as does auto below the size rule; auto above it and the forced
// fused route run the engine with the tail fused into its write-back,
// whichever panel source pb gives it. Fused and unfused results are bitwise
// identical on the same backend (see the package comment above).
func (p GEMMPath) GEMMPackedEpilogue(transA bool, m, n, k int, alpha float32, a []float32, pb *PackedB, ep *Epilogue, c []float32) {
	if ep == nil || ep.Kind == EpilogueNone {
		p.GEMMPacked(transA, m, n, k, alpha, a, pb, 0, c)
		return
	}
	pb.check("GEMMPackedEpilogue", n, k)
	checkGEMMArgs(transA, pb.transB, m, n, k, a, pb.src, c)
	if m == 0 || n == 0 {
		return
	}
	ep.check(m, n)
	scaleC(c[:m*n], 0)
	if k == 0 || alpha == 0 {
		// BLAS quick return for the product; the epilogue still defines
		// the output (bias rows, or LN of bias+residual).
		ep.applyReference(c, m, n)
		return
	}
	p.run(transA, pb.transB, m, n, k, alpha, a, pb.src, pb.buf, ep, c, true)
}

// countFused counts a fused write-back of the epilogue; nil-safe, like
// applyReference, for the calls that carry none.
func (ep *Epilogue) countFused() {
	if ep == nil {
		return
	}
	switch ep.Kind {
	case EpilogueBias:
		epilogueFusedBias.Inc()
	case EpilogueBiasGeLU:
		epilogueFusedBiasGeLU.Inc()
	case EpilogueBiasResidualLayerNorm:
		epilogueFusedBiasResLN.Inc()
	}
}

// applyReference applies the epilogue as the unfused kernel sequence the
// fused write-back replaces, reusing the stand-alone element-wise kernels
// so legacy call sites and epilogue call sites stay bitwise-identical. A
// nil epilogue applies nothing.
func (ep *Epilogue) applyReference(c []float32, m, n int) {
	if ep == nil {
		return
	}
	epilogueReferenceRuns.Inc()
	switch ep.Kind {
	case EpilogueNone:
	case EpilogueBias:
		AddBias(c, ep.Bias, m, n)
	case EpilogueBiasGeLU:
		AddBias(c, ep.Bias, m, n)
		if ep.X != nil {
			copyRows(ep.X, c)
		}
		GeLUForward(c, c)
	case EpilogueBiasResidualLayerNorm:
		AddBias(c, ep.Bias, m, n)
		AccumulateInto(c, ep.Residual)
		ep.finalizeLNRows(c, 0, m, n)
	}
}

// copyRows copies src into dst in parallel (save-buffer fill).
func copyRows(dst, src []float32) {
	checkSameLen("copyRows", dst, src)
	parallelFor(len(src), 1, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// ---------------------------------------------------------------------------
// Fused write-back: the hooks gemmBlocked calls when it is handed an
// epilogue (applyTile per finished tile of the final depth block,
// finalizeLNRows per finished stripe).

// applyTile applies the element-wise part of the epilogue to the C region
// rows [r0, r1) × cols [c0, c1). c is the full output buffer with leading
// dimension ld; Residual and X share that leading dimension. For the LN
// kind only bias+residual happens here — normalization needs complete
// rows and runs in finalizeLNRows.
func (ep *Epilogue) applyTile(c []float32, ld, r0, r1, c0, c1 int) {
	bias := ep.Bias[c0:c1]
	for r := r0; r < r1; r++ {
		row := c[r*ld+c0 : r*ld+c1]
		addRow(row, bias)
		switch ep.Kind {
		case EpilogueBiasGeLU:
			if ep.X != nil {
				copy(ep.X[r*ld+c0:r*ld+c1], row)
			}
			geluSpan(row, row)
		case EpilogueBiasResidualLayerNorm:
			// Same association as the unfused sequence: (acc+bias) first
			// (AddBias), then +residual (AccumulateInto).
			addRow(row, ep.Residual[r*ld+c0:r*ld+c1])
		}
	}
}

// epLNFinalizeState is the pooled parallel-region body of the LayerNorm
// finalize pass: item r normalizes row row0+r of c in place, saving the
// pre-LN row and statistics when the epilogue asks for them.
type epLNFinalizeState struct {
	c    []float32
	ep   *Epilogue
	row0 int
	n    int
}

var epLNFinalizePool = sync.Pool{New: func() any { return new(epLNFinalizeState) }}

func (s *epLNFinalizeState) runRange(lo, hi int) {
	ep := s.ep
	layerNormRows(s.c, s.c, ep.X, ep.Gamma, ep.Beta, ep.Mean, ep.InvStd, s.row0+lo, s.row0+hi, s.n, ep.Eps)
}

// finalizeLNRows normalizes rows [row0, row0+rows) of c in place. Shared
// by the fused stripe finalize and the unfused reference applier, so both
// perform the identical per-row float sequence.
func (ep *Epilogue) finalizeLNRows(c []float32, row0, rows, n int) {
	s := epLNFinalizePool.Get().(*epLNFinalizeState)
	s.c, s.ep, s.row0, s.n = c, ep, row0, n
	parallelRun(rows, 4, s)
	s.c, s.ep = nil, nil
	epLNFinalizePool.Put(s)
}
