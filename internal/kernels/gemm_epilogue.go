package kernels

import (
	"fmt"

	"demystbert/internal/tensor"
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
// (AddBias → [binary16 store] → GeLUForward / AddBias → [binary16 store]
// → [dropout mask multiply] → residual add → LayerNormForward), sharing
// the helpers addRow, halfRow, mulRow, geluSpan and layerNormRows. The
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
	// EpilogueBiasResidualLayerNorm adds bias, applies the block dropout
	// mask when one is set, adds a residual skip input, then
	// layer-normalizes each completed row with the learned affine
	// transform: C[i] = LN((acc_i + Bias)·Mask_i + Residual_i; Gamma, Beta, Eps).
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

	// Mask, when non-nil (length m×n, LN kind only), multiplies acc+bias
	// before the residual add: the block dropout's inverted mask, zeros
	// and 1/(1−p), applied through DropoutApply's mulRow, so a zero times
	// a NaN stays NaN.
	Mask []float32
	// Half rounds acc+bias through IEEE binary16 before anything reads
	// it — the mask, the X save, the GeLU: mixed precision's store of the
	// product to half storage and load back (nn.Ctx.StoreHalf).
	Half bool

	// X, when non-nil (length m×n), receives the pre-activation: acc+bias
	// for EpilogueBiasGeLU (the GeLU backward input), (acc+bias)·mask +
	// residual for the LN kind (the LayerNorm backward input).
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
	if ep.Mask != nil && (ep.Kind != EpilogueBiasResidualLayerNorm || len(ep.Mask) != m*n) {
		panic(fmt.Sprintf("kernels: Epilogue %s mask %d, want m*n=%d on the LN kind", ep.Kind, len(ep.Mask), m*n))
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
func (p GEMMPath) GEMMPackedEpilogue(pool *Pool, transA bool, m, n, k int, alpha float32, a []float32, pb *PackedB, ep *Epilogue, c []float32) {
	if ep == nil || ep.Kind == EpilogueNone {
		p.GEMMPacked(pool, transA, m, n, k, alpha, a, pb, 0, c)
		return
	}
	pb.check("GEMMPackedEpilogue", n, k)
	checkGEMMArgs(transA, pb.transB, m, n, k, a, pb.src, c)
	if m == 0 || n == 0 {
		return
	}
	ep.check(m, n)
	if k == 0 || alpha == 0 {
		// BLAS quick return for the product; the epilogue still defines
		// the output (bias rows, or LN of bias+residual).
		scaleC(c, m, n, n, 0)
		ep.applyReference(pool, c, m, n)
		return
	}
	p.run(pool, transA, pb.transB, m, n, k, alpha, a, ldOf(transA, m, k), pb.src, ldOf(pb.transB, k, n), pb.buf, 0, ep, c, n)
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
// nil epilogue applies nothing. The kernels run on pool.
func (ep *Epilogue) applyReference(pool *Pool, c []float32, m, n int) {
	if ep == nil {
		return
	}
	epilogueReferenceRuns.Inc()
	if ep.Kind == EpilogueNone {
		return
	}
	pool.AddBias(c, ep.Bias, m, n)
	if ep.Half {
		ewBodies.run(pool, len(c), grainFor(pool, len(c), 1), ewArgs{dst: c}, halfRange)
	}
	switch ep.Kind {
	case EpilogueBiasGeLU:
		if ep.X != nil {
			copyRows(pool, ep.X, c)
		}
		pool.GeLUForward(c, c)
	case EpilogueBiasResidualLayerNorm:
		if ep.Mask != nil {
			pool.Mul(c, c, ep.Mask)
		}
		pool.AccumulateInto(c, ep.Residual)
		if ep.X != nil {
			copyRows(pool, ep.X, c)
		}
		ep.finalizeLNRows(pool, c, 0, m, n)
	}
}

func halfRange(e *ewArgs, lo, hi int) { halfRow(e.dst[lo:hi]) }

// halfRow rounds every element of row through IEEE binary16 in place:
// tensor.RoundTripF16's store and load, one element at a time.
func halfRow(row []float32) {
	for i, v := range row {
		row[i] = tensor.ToF16(v).Float32()
	}
}

// copyRows copies src into dst in parallel (save-buffer fill).
func copyRows(pool *Pool, dst, src []float32) {
	checkSameLen("copyRows", dst, src)
	ewBodies.run(pool, len(src), grainFor(pool, len(src), 1), ewArgs{dst: dst, a: src}, copyRange)
}

func copyRange(e *ewArgs, lo, hi int) { copy(e.dst[lo:hi], e.a[lo:hi]) }

// ---------------------------------------------------------------------------
// Fused write-back: the hooks gemmBlocked calls when it is handed an
// epilogue (applyTile per finished tile of the final depth block,
// finalizeLNRows per finished stripe).

// applyTile applies the element-wise part of the epilogue to the C region
// rows [r0, r1) × cols [c0, c1). c is the full output buffer with leading
// dimension ld; Residual and X share that leading dimension. For the LN
// kind only bias, mask and residual happen here — normalization needs
// complete rows and runs in finalizeLNRows — and the pre-LN sum is
// written to X when X is set, C otherwise.
func (ep *Epilogue) applyTile(c []float32, ld, r0, r1, c0, c1 int) {
	bias := ep.Bias[c0:c1]
	for r := r0; r < r1; r++ {
		lo, hi := r*ld+c0, r*ld+c1
		row := c[lo:hi]
		addRow(row, bias)
		if ep.Half {
			halfRow(row)
		}
		switch ep.Kind {
		case EpilogueBiasGeLU:
			if ep.X != nil {
				copy(ep.X[lo:hi], row)
			}
			geluSpan(row, row)
		case EpilogueBiasResidualLayerNorm:
			// Same association as the unfused sequence: (acc+bias) first
			// (AddBias), then ·mask (DropoutApply), then +residual
			// (AccumulateInto). The sum lands in X when the caller saves
			// it: the finalize pass then normalizes X into C, with no copy
			// of the row.
			if ep.Mask != nil {
				mulRow(row, row, ep.Mask[lo:hi])
			}
			dst := row
			if ep.X != nil {
				dst = ep.X[lo:hi]
			}
			sumRow(dst, row, ep.Residual[lo:hi])
		}
	}
}

// epLNArgs are the LayerNorm finalize pass's operands: item r normalizes
// row row0+r into c, from ep.X when the epilogue saves the pre-LN rows
// there (and in place otherwise), saving the statistics when it asks for
// them.
type epLNArgs struct {
	c    []float32
	ep   *Epilogue
	row0 int
	n    int
}

var epLNBodies argsPool[epLNArgs]

func epLNRange(s *epLNArgs, lo, hi int) {
	ep, x := s.ep, s.c
	if ep.X != nil {
		x = ep.X
	}
	layerNormRows(s.c, x, ep.Gamma, ep.Beta, ep.Mean, ep.InvStd, s.row0+lo, s.row0+hi, s.n, ep.Eps)
}

// finalizeLNRows normalizes rows [row0, row0+rows) of the pre-LN sums —
// X when the epilogue sets it, c itself otherwise — into c. Shared by the
// fused stripe finalize and the unfused reference applier, so both
// perform the identical per-row float sequence.
func (ep *Epilogue) finalizeLNRows(pool *Pool, c []float32, row0, rows, n int) {
	epLNBodies.run(pool, rows, 4, epLNArgs{c: c, ep: ep, row0: row0, n: n}, epLNRange)
}
