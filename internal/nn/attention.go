package nn

import (
	"fmt"
	"math"

	"demystbert/internal/kernels"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// MultiHeadAttention implements the attention network of Fig. 2(c,d) and
// Fig. 5: Q/K/V linear projections, h parallel attention heads executed as
// batched GEMMs of B·h small matrices, the scale→mask→softmax→dropout
// pipeline on attention scores, the weighted-sum batched GEMM, head
// concatenation, and the output projection.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Linear
	AttnDrop       *Dropout

	// Causal masks future key positions, turning the encoder block into
	// a decoder block (Section 2.3: the decoder "is similar to encoder
	// except its attention layer is masked to consider only past tokens"
	// — it only zeros certain matrix elements and does not change the
	// kernel structure).
	Causal bool

	heads, dHead int

	// Saved forward state for backprop.
	b, n       int
	qh, kh, vh *tensor.Tensor // [B*h, n, dHead] split projections
	probs      *tensor.Tensor // post-dropout attention probabilities
	softmaxOut *tensor.Tensor // post-softmax (pre-dropout) probabilities
}

// NewMultiHeadAttention builds an attention block for the given model
// width and head count. dModel must be divisible by heads.
func NewMultiHeadAttention(name string, dModel, heads int, dropP float32, rng *tensor.RNG) *MultiHeadAttention {
	a := NewAttentionFrom(
		NewLinear(name+".q", dModel, dModel, profile.CatLinear, rng),
		NewLinear(name+".k", dModel, dModel, profile.CatLinear, rng),
		NewLinear(name+".v", dModel, dModel, profile.CatLinear, rng),
		NewLinear(name+".o", dModel, dModel, profile.CatLinear, rng),
		heads)
	a.AttnDrop.P = dropP
	return a
}

// NewAttentionFrom assembles an attention block around existing
// projections, with attention dropout off. Its input width is Wq.In();
// its inner width — the width of Q, K and V and of Wo's input — may be
// narrower, as in a tensor-sliced shard that owns only some of the heads.
// The inner width must be divisible by heads.
func NewAttentionFrom(wq, wk, wv, wo *Linear, heads int) *MultiHeadAttention {
	in, inner := wq.In(), wq.Out()
	if wk.In() != in || wv.In() != in || wk.Out() != inner || wv.Out() != inner || wo.In() != inner {
		panic(fmt.Sprintf("nn: attention projections q %dx%d, k %dx%d, v %dx%d, o %dx%d do not fit together",
			wq.In(), wq.Out(), wk.In(), wk.Out(), wv.In(), wv.Out(), wo.In(), wo.Out()))
	}
	if heads <= 0 || inner%heads != 0 {
		panic(fmt.Sprintf("nn: attention width %d not divisible by %d heads", inner, heads))
	}
	return &MultiHeadAttention{
		Wq: wq, Wk: wk, Wv: wv, Wo: wo,
		AttnDrop: NewDropout(0, profile.CatScaleMaskSM),
		heads:    heads,
		dHead:    inner / heads,
	}
}

// inner returns the width of Q, K and V: heads·dHead.
func (a *MultiHeadAttention) inner() int { return a.heads * a.dHead }

// Forward runs attention over x: [B·n, Wq.In()]. mask, if non-nil, is an
// additive [B, n] key mask (0 for visible, large-negative for padding).
func (a *MultiHeadAttention) Forward(ctx *Ctx, x *tensor.Tensor, b, n int, mask *tensor.Tensor) *tensor.Tensor {
	return a.Wo.Forward(ctx, a.forwardCore(ctx, x, b, n, mask))
}

// forwardCore runs everything up to (not including) the output
// projection, returning the merged head outputs [B·n, heads·dHead].
func (a *MultiHeadAttention) forwardCore(ctx *Ctx, x *tensor.Tensor, b, n int, mask *tensor.Tensor) *tensor.Tensor {
	tokens, dim := mustRank2("MultiHeadAttention", x)
	if tokens != b*n || dim != a.Wq.In() {
		panic(fmt.Sprintf("nn: attention input %v, want [%d, %d]", x.Shape(), b*n, a.Wq.In()))
	}
	if mask != nil && (mask.Rank() != 2 || mask.Dim(0) != b || mask.Dim(1) != n) {
		panic(fmt.Sprintf("nn: attention mask %v, want [%d, %d]", mask.Shape(), b, n))
	}
	a.b, a.n = b, n
	es := ctx.ElemSize()
	batch := b * a.heads

	// Linear projections (Table 2b "Linear": d_model × n·B × d_model).
	q := a.Wq.Forward(ctx, x)
	k := a.Wk.Forward(ctx, x)
	v := a.Wv.Forward(ctx, x)

	// Split into h heads: [B*h, n, dHead].
	a.qh = ctx.NewActivation(batch, n, a.dHead)
	a.kh = ctx.NewActivation(batch, n, a.dHead)
	a.vh = ctx.NewActivation(batch, n, a.dHead)
	sz := tokens * a.inner()
	ctx.Prof.Time("split_heads", profile.CatOther, profile.Forward,
		0, kernels.EWBytes(3*sz, 1, 1, es), func() {
			ctx.Pool.SplitHeads(a.qh.Data(), q.Data(), b, n, a.heads, a.dHead)
			ctx.Pool.SplitHeads(a.kh.Data(), k.Data(), b, n, a.heads, a.dHead)
			ctx.Pool.SplitHeads(a.vh.Data(), v.Data(), b, n, a.heads, a.dHead)
		})

	// Attention scores: B·h batched GEMMs of n×n×dHead (Table 2b
	// "Attn. Score"). BatchedGEMM hands whole matrices to the worker pool
	// and routes each product as GEMM would, so heads of the paper's
	// models (64 wide) run the blocked engine and tiny ones (small
	// configs: 16×16×8) the naive loops; see DESIGN.md §8.
	scores := ctx.NewActivation(batch, n, n)
	stQK, stS := n*a.dHead, n*n
	ctx.Prof.Time("attn_score_bgemm", profile.CatAttnBGEMM, profile.Forward,
		int64(batch)*kernels.GEMMFLOPs(n, n, a.dHead),
		int64(batch)*kernels.GEMMBytes(n, n, a.dHead, es), func() {
			ctx.Route.BatchedGEMM(ctx.Pool, batch, false, true, n, n, a.dHead, 1,
				a.qh.Data(), stQK, a.kh.Data(), stQK, 0, scores.Data(), stS)
		})

	// Scale by 1/sqrt(dHead), mask (key padding + optional causal) and
	// softmax in one pass over the score matrix (the Section 6.1.1
	// fusion), writing the probabilities over the scores.
	scale := float32(1 / math.Sqrt(float64(a.dHead)))
	nScores := batch * n * n
	var maskData []float32
	if mask != nil {
		maskData = mask.Data()
	}
	ctx.Prof.Time("attn_scale_mask_softmax_fused", profile.CatScaleMaskSM, profile.Forward,
		kernels.EWFLOPs(nScores, 6), kernels.EWBytes(nScores, 1, 1, es), func() {
			ctx.Pool.ScaleMaskSoftmaxAttention(scores.Data(), scores.Data(),
				maskData, scale, a.Causal, b, a.heads, n)
		})
	a.softmaxOut = scores

	// Attention dropout (element-wise, so over the [B*h, n, n] tensor as
	// it is).
	a.probs = a.AttnDrop.Forward(ctx, a.softmaxOut)

	// Weighted sum of values: B·h batched GEMMs of n×dHead×n (Table 2b
	// "Attn. O/p").
	ctxOut := ctx.NewActivation(batch, n, a.dHead)
	ctx.Prof.Time("attn_output_bgemm", profile.CatAttnBGEMM, profile.Forward,
		int64(batch)*kernels.GEMMFLOPs(n, a.dHead, n),
		int64(batch)*kernels.GEMMBytes(n, a.dHead, n, es), func() {
			ctx.Route.BatchedGEMM(ctx.Pool, batch, false, false, n, a.dHead, n, 1,
				a.probs.Data(), stS, a.vh.Data(), stQK, 0, ctxOut.Data(), stQK)
		})

	// Concatenate heads back to [B·n, heads·dHead].
	merged := ctx.NewActivation(tokens, a.inner())
	ctx.Prof.Time("merge_heads", profile.CatOther, profile.Forward,
		0, kernels.EWBytes(sz, 1, 1, es), func() {
			ctx.Pool.MergeHeads(merged.Data(), ctxOut.Data(), b, n, a.heads, a.dHead)
		})

	return merged
}

// forwardCoreRagged is forwardCore for a padding-free evaluation batch:
// x is [T, Wq.In()] and sequence s owns rows offsets[s]..offsets[s+1]. The
// three projections run over all T rows; everything between them and the
// output projection is one kernel (kernels.AttentionRagged), so there is
// no key mask, no score tensor and nothing saved for Backward.
func (a *MultiHeadAttention) forwardCoreRagged(ctx *Ctx, x *tensor.Tensor, offsets []int) *tensor.Tensor {
	tokens, dim := mustRank2("MultiHeadAttention", x)
	if dim != a.Wq.In() || offsets[len(offsets)-1] != tokens {
		panic(fmt.Sprintf("nn: ragged attention input %v, want [%d, %d]", x.Shape(), offsets[len(offsets)-1], a.Wq.In()))
	}
	if ctx.Train {
		panic("nn: ragged attention is evaluation-only")
	}
	q := a.Wq.Forward(ctx, x)
	k := a.Wk.Forward(ctx, x)
	v := a.Wv.Forward(ctx, x)

	// One event for the whole region, carrying the B-GEMM work of every
	// (sequence, head) item; the scale and softmax ride inside it.
	es := ctx.ElemSize()
	var flops, bytes int64
	for s := 1; s < len(offsets); s++ {
		n := offsets[s] - offsets[s-1]
		flops += int64(a.heads) * (kernels.GEMMFLOPs(n, n, a.dHead) + kernels.GEMMFLOPs(n, a.dHead, n))
		bytes += int64(a.heads) * (kernels.GEMMBytes(n, n, a.dHead, es) + kernels.GEMMBytes(n, a.dHead, n, es))
	}
	merged := ctx.NewActivation(tokens, a.inner())
	scale := float32(1 / math.Sqrt(float64(a.dHead)))
	ctx.Prof.Time("attn_ragged", profile.CatAttnBGEMM, profile.Forward, flops, bytes, func() {
		ctx.Route.AttentionRagged(ctx.Pool, merged.Data(), q.Data(), k.Data(), v.Data(), offsets, a.heads, a.dHead, scale, a.Causal)
	})
	return merged
}

// Backward propagates dY: [B·n, Wo.Out()] through the attention block and
// returns dX. Parameter gradients accumulate into the four projections.
func (a *MultiHeadAttention) Backward(ctx *Ctx, dY *tensor.Tensor) *tensor.Tensor {
	if a.qh == nil {
		panic("nn: MultiHeadAttention.Backward called before Forward")
	}
	b, n := a.b, a.n
	tokens := b * n
	batch := b * a.heads
	es := ctx.ElemSize()
	stQK, stS := n*a.dHead, n*n

	// Through output projection.
	dMerged := a.Wo.Backward(ctx, dY)

	// Un-concatenate heads.
	dCtxOut := ctx.NewActivation(batch, n, a.dHead)
	sz := tokens * a.inner()
	ctx.Prof.Time("split_heads_bwd", profile.CatOther, profile.Backward,
		0, kernels.EWBytes(sz, 1, 1, es), func() {
			ctx.Pool.SplitHeads(dCtxOut.Data(), dMerged.Data(), b, n, a.heads, a.dHead)
		})

	// Backward of output BGEMM (Table 2b "Attn. O/p" BWD rows):
	// dProbs = dCtxOut · V^T, dV = Probs^T · dCtxOut.
	dProbs := ctx.NewActivation(batch, n, n)
	dVh := ctx.NewActivation(batch, n, a.dHead)
	ctx.Prof.Time("attn_output_bgemm_bwd", profile.CatAttnBGEMM, profile.Backward,
		2*int64(batch)*kernels.GEMMFLOPs(n, n, a.dHead),
		2*int64(batch)*kernels.GEMMBytes(n, n, a.dHead, es), func() {
			ctx.Route.BatchedGEMM(ctx.Pool, batch, false, true, n, n, a.dHead, 1,
				dCtxOut.Data(), stQK, a.vh.Data(), stQK, 0, dProbs.Data(), stS)
			ctx.Route.BatchedGEMM(ctx.Pool, batch, true, false, n, a.dHead, n, 1,
				a.probs.Data(), stS, dCtxOut.Data(), stQK, 0, dVh.Data(), stQK)
		})

	// Through dropout, then softmax.
	dAfterDrop := a.AttnDrop.Backward(ctx, dProbs)
	dScores := ctx.NewActivation(batch, n, n)
	nScores := batch * n * n
	ctx.Prof.Time("attn_softmax_bwd", profile.CatScaleMaskSM, profile.Backward,
		kernels.EWFLOPs(nScores, 4), kernels.EWBytes(nScores, 2, 1, es), func() {
			ctx.Pool.SoftmaxGrad(dScores.Data(), dAfterDrop.Data(), a.softmaxOut.Data(), batch*n, n)
		})
	// Mask add has identity gradient; scale backward multiplies by the
	// same constant.
	scale := float32(1 / math.Sqrt(float64(a.dHead)))
	ctx.Prof.Time("attn_scale_bwd", profile.CatScaleMaskSM, profile.Backward,
		kernels.EWFLOPs(nScores, 1), kernels.EWBytes(nScores, 1, 1, es), func() {
			ctx.Pool.Scale(dScores.Data(), dScores.Data(), scale)
		})

	// Backward of score BGEMM (Table 2b "Attn. Score" BWD rows):
	// dQ = dScores · K, dK = dScores^T · Q.
	dQh := ctx.NewActivation(batch, n, a.dHead)
	dKh := ctx.NewActivation(batch, n, a.dHead)
	ctx.Prof.Time("attn_score_bgemm_bwd", profile.CatAttnBGEMM, profile.Backward,
		2*int64(batch)*kernels.GEMMFLOPs(n, a.dHead, n),
		2*int64(batch)*kernels.GEMMBytes(n, a.dHead, n, es), func() {
			ctx.Route.BatchedGEMM(ctx.Pool, batch, false, false, n, a.dHead, n, 1,
				dScores.Data(), stS, a.kh.Data(), stQK, 0, dQh.Data(), stQK)
			ctx.Route.BatchedGEMM(ctx.Pool, batch, true, false, n, a.dHead, n, 1,
				dScores.Data(), stS, a.qh.Data(), stQK, 0, dKh.Data(), stQK)
		})

	// Merge head gradients back to [B·n, heads·dHead].
	dQ := ctx.NewActivation(tokens, a.inner())
	dK := ctx.NewActivation(tokens, a.inner())
	dV := ctx.NewActivation(tokens, a.inner())
	ctx.Prof.Time("merge_heads_bwd", profile.CatOther, profile.Backward,
		0, kernels.EWBytes(3*sz, 1, 1, es), func() {
			ctx.Pool.MergeHeads(dQ.Data(), dQh.Data(), b, n, a.heads, a.dHead)
			ctx.Pool.MergeHeads(dK.Data(), dKh.Data(), b, n, a.heads, a.dHead)
			ctx.Pool.MergeHeads(dV.Data(), dVh.Data(), b, n, a.heads, a.dHead)
		})

	// Through the three input projections; their dX contributions sum
	// because x feeds all three.
	dX := a.Wq.Backward(ctx, dQ)
	dXk := a.Wk.Backward(ctx, dK)
	dXv := a.Wv.Backward(ctx, dV)
	nIn := tokens * a.Wq.In()
	ctx.Prof.Time("attn_input_grad_sum", profile.CatOther, profile.Backward,
		kernels.EWFLOPs(nIn, 2), kernels.EWBytes(nIn, 3, 1, es), func() {
			ctx.Pool.AccumulateInto(dX.Data(), dXk.Data())
			ctx.Pool.AccumulateInto(dX.Data(), dXv.Data())
		})

	a.qh, a.kh, a.vh, a.probs, a.softmaxOut = nil, nil, nil, nil, nil
	return dX
}

// Params returns the four projection layers' parameters.
func (a *MultiHeadAttention) Params() []*Param {
	return collectParams(a.Wq, a.Wk, a.Wv, a.Wo)
}

// Heads returns the attention head count.
func (a *MultiHeadAttention) Heads() int { return a.heads }
