package nn

import (
	"fmt"
	"math"
	"time"

	"demystbert/internal/kernels"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// MultiHeadAttention implements the attention network of Fig. 2(c,d) and
// Fig. 5: Q/K/V linear projections; the core — h heads' score products,
// scale→mask→softmax→dropout on the scores, the weighted sum of values and
// the head concatenation — as one kernel region over (sequence, head)
// items in training and evaluation alike (kernels.AttentionForward,
// AttentionBackward), profiled per stage; and the output projection.
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

	// Saved for backprop by a training forward: the region's operands and
	// the post-softmax, pre-dropout probabilities [B·h, n, n].
	core       kernels.Attention
	softmaxOut *tensor.Tensor
	offsets    []int // a [B, n] batch's offsets: 0, n, 2n, …
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
	return a.Wo.Forward(ctx, a.forwardCore(ctx, x, uniformOffsets(&a.offsets, b, n), mask))
}

// uniformOffsets returns the offsets of a [B, n] batch, 0, n, 2n, …, B·n,
// in *buf, which it grows as needed.
func uniformOffsets(buf *[]int, b, n int) []int {
	*buf = (*buf)[:0]
	for s := 0; s <= b; s++ {
		*buf = append(*buf, s*n)
	}
	return *buf
}

// forwardCore runs the three projections over all T rows of x and the
// attention region over them (sequence s owns rows offsets[s]..offsets[s+1];
// mask is an additive [B, n] key mask or nil), returning the merged head
// outputs [T, heads·dHead]. Training saves the probabilities in a
// [B·h, n, n] tensor (the batch must be [B, n] then) and fills — or, in a
// checkpointed recompute, replays — the dropout mask the region multiplies
// in; evaluation saves nothing, draws no score tensor and runs the region
// on the context's operand struct, writing no field of the block.
func (a *MultiHeadAttention) forwardCore(ctx *Ctx, x *tensor.Tensor, offsets []int, mask *tensor.Tensor) *tensor.Tensor {
	tokens, dim := mustRank2("MultiHeadAttention", x)
	b := len(offsets) - 1
	if dim != a.Wq.In() || offsets[b] != tokens {
		panic(fmt.Sprintf("nn: attention input %v, want [%d, %d]", x.Shape(), offsets[b], a.Wq.In()))
	}
	var keyMask []float32
	if mask != nil {
		if mask.Rank() != 2 || mask.Dim(0) != b || mask.Size() != tokens {
			panic(fmt.Sprintf("nn: attention mask %v, want [%d, %d]", mask.Shape(), b, tokens/b))
		}
		keyMask = mask.Data()
	}
	// Linear projections (Table 2b "Linear": d_model × n·B × d_model).
	q := a.Wq.Forward(ctx, x)
	k := a.Wk.Forward(ctx, x)
	v := a.Wv.Forward(ctx, x)
	core := &ctx.attn
	if ctx.Train {
		core = &a.core
	}
	*core = kernels.Attention{
		Q: q.Data(), K: k.Data(), V: v.Data(), Offsets: offsets,
		Heads: a.heads, DHead: a.dHead, Scale: float32(1 / math.Sqrt(float64(a.dHead))), Causal: a.Causal,
		KeyMask: keyMask,
	}
	if ctx.Train {
		a.softmaxOut = ctx.NewActivation(b*a.heads, offsets[1], offsets[1])
		core.Probs = a.softmaxOut.Data()
		if m := a.AttnDrop.fillMask(ctx, a.softmaxOut); m != nil {
			core.Drop = m.Data()
		}
	}
	merged := ctx.NewActivation(tokens, a.inner())
	a.profileRegion(ctx, core, profile.Forward, func(st *kernels.AttentionStages) {
		ctx.Route.AttentionForward(ctx.Pool, core, merged.Data(), st)
	})
	return merged
}

// Backward propagates dY: [B·n, Wo.Out()] through the attention block and
// returns dX. Parameter gradients accumulate into the four projections.
func (a *MultiHeadAttention) Backward(ctx *Ctx, dY *tensor.Tensor) *tensor.Tensor {
	if a.softmaxOut == nil {
		panic("nn: MultiHeadAttention.Backward called before a training Forward")
	}
	// Through the output projection, then the attention region.
	dMerged := a.Wo.Backward(ctx, dY)
	tokens := dMerged.Dim(0)
	dQ := ctx.NewActivation(tokens, a.inner())
	dK := ctx.NewActivation(tokens, a.inner())
	dV := ctx.NewActivation(tokens, a.inner())
	a.profileRegion(ctx, &a.core, profile.Backward, func(st *kernels.AttentionStages) {
		ctx.Route.AttentionBackward(ctx.Pool, &a.core, dQ.Data(), dK.Data(), dV.Data(), dMerged.Data(), st)
	})

	// Through the three input projections; their dX contributions sum
	// because x feeds all three.
	dX := a.Wq.Backward(ctx, dQ)
	dXk := a.Wk.Backward(ctx, dK)
	dXv := a.Wv.Backward(ctx, dV)
	nIn := tokens * a.Wq.In()
	es := ctx.ElemSize()
	ctx.Prof.Time("attn_input_grad_sum", profile.CatOther, profile.Backward,
		kernels.EWFLOPs(nIn, 2), kernels.EWBytes(nIn, 3, 1, es), func() {
			ctx.Pool.AccumulateInto(dX.Data(), dXk.Data())
			ctx.Pool.AccumulateInto(dX.Data(), dXv.Data())
		})

	a.AttnDrop.mask = nil
	a.core, a.softmaxOut = kernels.Attention{}, nil
	return dX
}

// profileRegion runs one attention region over core. Under a profiler it
// records the region as two events — the per-head products
// (CatAttnBGEMM) and scale/mask/dropout/softmax (CatScaleMaskSM) — that
// tile its wall time back to back, split in proportion to the busy time
// its items spent in each stage.
func (a *MultiHeadAttention) profileRegion(ctx *Ctx, core *kernels.Attention, phase profile.Phase, region func(st *kernels.AttentionStages)) {
	if ctx.Prof == nil {
		region(nil)
		return
	}
	start := time.Now()
	region(&ctx.stages)
	wall := time.Since(start)

	// Algorithmic costs as the whole-tensor kernels counted them. Per head
	// the forward runs 2 products, the fused score pass (6 FLOPs and 2
	// accesses per score) and the dropout apply (1, 3); the backward 4
	// products, the softmax gradient and scale (5, 5) and the dropout
	// re-form and apply (2, 6).
	products, ops, io := 1, 6, 2
	if phase == profile.Backward {
		products, ops, io = 2, 5, 5
	}
	if core.Drop != nil {
		ops, io = ops+products, io+3*products
	}
	es, offs := ctx.ElemSize(), core.Offsets
	var gemmFLOPs, gemmBytes int64
	scores := 0
	for s := 1; s < len(offs); s++ {
		n := offs[s] - offs[s-1]
		scores += a.heads * n * n
		gemmFLOPs += int64(2*products*a.heads) * kernels.GEMMFLOPs(n, n, a.dHead)
		gemmBytes += int64(2*products*a.heads) * kernels.GEMMBytes(n, n, a.dHead, es)
	}
	events := [2]profile.Event{
		{Kernel: "attn_core_bgemm", Category: profile.CatAttnBGEMM, FLOPs: gemmFLOPs, Bytes: gemmBytes},
		{Kernel: "attn_core_softmax", Category: profile.CatScaleMaskSM, FLOPs: kernels.EWFLOPs(scores, ops), Bytes: kernels.EWBytes(scores, io, 0, es)},
	}
	busy := [2]int64{ctx.stages[0].Load(), ctx.stages[1].Load()}
	for i, d := range splitWall(wall, busy) {
		events[i].Phase, events[i].Start, events[i].Duration = phase, start, d
		ctx.Prof.Record(events[i])
		start = start.Add(d)
	}
}

// splitWall splits a region's wall time into per-stage durations in
// proportion to the stages' busy times; they sum to wall exactly (the
// last takes the rounding remainder, and all of it when nothing was
// busy).
func splitWall(wall time.Duration, busy [2]int64) (d [2]time.Duration) {
	if total := busy[0] + busy[1]; total > 0 {
		d[0] = min(time.Duration(float64(wall)*float64(busy[0])/float64(total)), wall)
	}
	d[1] = wall - d[0]
	return d
}

// Params returns the four projection layers' parameters.
func (a *MultiHeadAttention) Params() []*Param {
	return collectParams(a.Wq, a.Wk, a.Wv, a.Wo)
}

// Heads returns the attention head count.
func (a *MultiHeadAttention) Heads() int { return a.heads }
