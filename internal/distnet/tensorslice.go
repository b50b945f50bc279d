package distnet

import (
	"fmt"
	"math"

	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// SlicedLayer is one rank's shard of a Transformer encoder layer under
// Megatron-style tensor slicing (Fig. 10), with the group's World() ranks
// as the m ways: the rank holds 1/m of the attention heads (column-split
// Q/K/V projections), the matching row-split slice of the output
// projection, a column-split FC-1 and row-split FC-2 slice, and a full
// replica of the LayerNorms. The two forward partial-sum AllReduces (after
// the output projection and after FC-2) and the two backward
// input-gradient AllReduces (into the FC-1 and Q/K/V inputs) are the
// group's ring AllReduce — Section 5.1's four AllReduces per layer.
//
// Every rank of the group must build its SlicedLayer from the same
// reference and call Forward and Backward in step, one goroutine or
// process per rank. The AllReduces leave bit-identical sums on every
// rank, so the replicated tail — and the layer's output — is identical
// across ranks too.
//
// Dropout is disabled inside the sliced layer: the replicated dropout of
// real Megatron requires synchronized RNG streams, and the layer's
// purpose here is numerical parity with an unsliced reference.
type SlicedLayer struct {
	g              *Group
	wq, wk, wv, wo *nn.Linear
	ff             *nn.FeedForward
	attnLN, ffLN   *nn.LayerNorm
	attn           slicedAttention
	dModel         int
}

// NewSlicedLayer cuts rank g.Rank()'s shard out of a reference encoder
// layer's weights. The reference layer is read, not mutated; it must have
// been built with nn.NewEncoderLayer.
func NewSlicedLayer(g *Group, ref *nn.EncoderLayer) (*SlicedLayer, error) {
	m, w := g.World(), g.Rank()
	dModel := ref.Attn.Wq.In()
	heads := ref.Attn.Heads()
	dFF := ref.FF.FC1.Out()
	if heads%m != 0 || dFF%m != 0 || dModel%m != 0 {
		return nil, fmt.Errorf("distnet: %d-way slicing does not divide h=%d, d_ff=%d, d_model=%d", m, heads, dFF, dModel)
	}
	dm, ffm := dModel/m, dFF/m
	return &SlicedLayer{
		g:  g,
		wq: sliceLinearRows(ref.Attn.Wq, w*dm, dm),
		wk: sliceLinearRows(ref.Attn.Wk, w*dm, dm),
		wv: sliceLinearRows(ref.Attn.Wv, w*dm, dm),
		wo: sliceLinearCols(ref.Attn.Wo, w*dm, dm, w == 0),
		ff: &nn.FeedForward{
			FC1: sliceLinearRows(ref.FF.FC1, w*ffm, ffm),
			FC2: sliceLinearCols(ref.FF.FC2, w*ffm, ffm, w == 0),
			Act: nn.NewGeLU(),
		},
		attnLN: cloneLN(ref.AttnLN, dModel),
		ffLN:   cloneLN(ref.FFLN, dModel),
		attn:   slicedAttention{heads: heads / m, dHead: dModel / heads},
		dModel: dModel,
	}, nil
}

// cloneLN copies a LayerNorm's parameters into a fresh module (replicated
// weights; their gradients are computed from all-reduced inputs and so are
// identical on every rank).
func cloneLN(ref *nn.LayerNorm, dim int) *nn.LayerNorm {
	ln := nn.NewLayerNorm("ts.ln", dim)
	ln.Gamma.Value.CopyFrom(ref.Gamma.Value)
	ln.Beta.Value.CopyFrom(ref.Beta.Value)
	return ln
}

// sliceLinearRows builds a column-parallel shard: rows [off, off+count) of
// the reference weight (output features) and the matching bias slice.
func sliceLinearRows(ref *nn.Linear, off, count int) *nn.Linear {
	l := nn.NewLinear("ts.colpar", ref.In(), count, profile.CatLinear, tensor.NewRNG(1))
	for r := 0; r < count; r++ {
		copy(l.W.Value.Row(r), ref.W.Value.Row(off+r))
	}
	copy(l.B.Value.Data(), ref.B.Value.Data()[off:off+count])
	return l
}

// sliceLinearCols builds a row-parallel shard: columns [off, off+count) of
// the reference weight (input features). Only rank 0 carries the bias —
// partial sums are added across ranks, so a replicated bias would be
// counted m times.
func sliceLinearCols(ref *nn.Linear, off, count int, withBias bool) *nn.Linear {
	out := ref.Out()
	l := nn.NewLinear("ts.rowpar", count, out, profile.CatLinear, tensor.NewRNG(1))
	for r := 0; r < out; r++ {
		copy(l.W.Value.Row(r), ref.W.Value.Row(r)[off:off+count])
	}
	if withBias {
		copy(l.B.Value.Data(), ref.B.Value.Data())
	} else {
		l.B.Value.Zero()
	}
	return l
}

// Forward runs the sliced layer over x: [B·n, dModel], the full input
// replicated on every rank, and returns the full output.
func (s *SlicedLayer) Forward(ctx *nn.Ctx, x *tensor.Tensor, b, n int) (*tensor.Tensor, error) {
	// Attention: this rank's heads, then its row-parallel partial of the
	// output projection, summed across ranks.
	q := s.wq.Forward(ctx, x)
	k := s.wk.Forward(ctx, x)
	v := s.wv.Forward(ctx, x)
	attnOut := s.wo.Forward(ctx, s.attn.forward(q, k, v, b, n))
	if err := s.g.AllReduce(tagSlice, attnOut.Data()); err != nil {
		return nil, err
	}
	sum := tensor.New(b*n, s.dModel)
	kernels.Add(sum.Data(), attnOut.Data(), x.Data())
	h := s.attnLN.Forward(ctx, sum)

	// FC block: column-parallel FC-1 + GeLU, row-parallel FC-2 partial.
	ffOut := s.ff.Forward(ctx, h)
	if err := s.g.AllReduce(tagSlice+1, ffOut.Data()); err != nil {
		return nil, err
	}
	sum2 := tensor.New(b*n, s.dModel)
	kernels.Add(sum2.Data(), ffOut.Data(), h.Data())
	return s.ffLN.Forward(ctx, sum2), nil
}

// Backward propagates dY through the sliced layer and returns dX. The two
// backward AllReduces combine the ranks' partial input gradients.
func (s *SlicedLayer) Backward(ctx *nn.Ctx, dY *tensor.Tensor) (*tensor.Tensor, error) {
	dSum2 := s.ffLN.Backward(ctx, dY)
	dH := s.ff.Backward(ctx, dSum2)
	if err := s.g.AllReduce(tagSlice+2, dH.Data()); err != nil {
		return nil, err
	}
	// The skip connection adds the post-LN gradient directly.
	kernels.AccumulateInto(dH.Data(), dSum2.Data())

	dSum := s.attnLN.Backward(ctx, dH)
	dQ, dK, dV := s.attn.backward(s.wo.Backward(ctx, dSum))
	dX := s.wq.Backward(ctx, dQ)
	kernels.AccumulateInto(dX.Data(), s.wk.Backward(ctx, dK).Data())
	kernels.AccumulateInto(dX.Data(), s.wv.Backward(ctx, dV).Data())
	if err := s.g.AllReduce(tagSlice+3, dX.Data()); err != nil {
		return nil, err
	}
	kernels.AccumulateInto(dX.Data(), dSum.Data())
	return dX, nil
}

// slicedAttention is the per-rank multi-head attention core over its head
// subset (no projections, no dropout).
type slicedAttention struct {
	heads, dHead int

	b, n       int
	qh, kh, vh *tensor.Tensor
	probs      *tensor.Tensor
}

func (a *slicedAttention) scale() float32 {
	return float32(1 / math.Sqrt(float64(a.dHead)))
}

func (a *slicedAttention) forward(q, k, v *tensor.Tensor, b, n int) *tensor.Tensor {
	a.b, a.n = b, n
	batch := b * a.heads
	stQK, stS := n*a.dHead, n*n

	a.qh = tensor.New(batch, n, a.dHead)
	a.kh = tensor.New(batch, n, a.dHead)
	a.vh = tensor.New(batch, n, a.dHead)
	kernels.SplitHeads(a.qh.Data(), q.Data(), b, n, a.heads, a.dHead)
	kernels.SplitHeads(a.kh.Data(), k.Data(), b, n, a.heads, a.dHead)
	kernels.SplitHeads(a.vh.Data(), v.Data(), b, n, a.heads, a.dHead)

	scores := tensor.New(batch, n, n)
	kernels.BatchedGEMM(batch, false, true, n, n, a.dHead, 1,
		a.qh.Data(), stQK, a.kh.Data(), stQK, 0, scores.Data(), stS)

	a.probs = tensor.New(batch, n, n)
	kernels.ScaleMaskSoftmaxAttention(a.probs.Data(), scores.Data(), nil, a.scale(), false, b, a.heads, n)

	ctxOut := tensor.New(batch, n, a.dHead)
	kernels.BatchedGEMM(batch, false, false, n, a.dHead, n, 1,
		a.probs.Data(), stS, a.vh.Data(), stQK, 0, ctxOut.Data(), stQK)

	merged := tensor.New(b*n, a.heads*a.dHead)
	kernels.MergeHeads(merged.Data(), ctxOut.Data(), b, n, a.heads, a.dHead)
	return merged
}

func (a *slicedAttention) backward(dMerged *tensor.Tensor) (dQ, dK, dV *tensor.Tensor) {
	b, n := a.b, a.n
	batch := b * a.heads
	dSlice := a.heads * a.dHead
	stQK, stS := n*a.dHead, n*n

	dCtx := tensor.New(batch, n, a.dHead)
	kernels.SplitHeads(dCtx.Data(), dMerged.Data(), b, n, a.heads, a.dHead)

	dProbs := tensor.New(batch, n, n)
	dVh := tensor.New(batch, n, a.dHead)
	kernels.BatchedGEMM(batch, false, true, n, n, a.dHead, 1,
		dCtx.Data(), stQK, a.vh.Data(), stQK, 0, dProbs.Data(), stS)
	kernels.BatchedGEMM(batch, true, false, n, a.dHead, n, 1,
		a.probs.Data(), stS, dCtx.Data(), stQK, 0, dVh.Data(), stQK)

	dScores := tensor.New(batch, n, n)
	kernels.SoftmaxGrad(dScores.Data(), dProbs.Data(), a.probs.Data(), batch*n, n)
	kernels.Scale(dScores.Data(), dScores.Data(), a.scale())

	dQh := tensor.New(batch, n, a.dHead)
	dKh := tensor.New(batch, n, a.dHead)
	kernels.BatchedGEMM(batch, false, false, n, a.dHead, n, 1,
		dScores.Data(), stS, a.kh.Data(), stQK, 0, dQh.Data(), stQK)
	kernels.BatchedGEMM(batch, true, false, n, a.dHead, n, 1,
		dScores.Data(), stS, a.qh.Data(), stQK, 0, dKh.Data(), stQK)

	dQ = tensor.New(b*n, dSlice)
	dK = tensor.New(b*n, dSlice)
	dV = tensor.New(b*n, dSlice)
	kernels.MergeHeads(dQ.Data(), dQh.Data(), b, n, a.heads, a.dHead)
	kernels.MergeHeads(dK.Data(), dKh.Data(), b, n, a.heads, a.dHead)
	kernels.MergeHeads(dV.Data(), dVh.Data(), b, n, a.heads, a.dHead)
	return dQ, dK, dV
}
