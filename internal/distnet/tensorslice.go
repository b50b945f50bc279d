package distnet

import (
	"fmt"

	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// SlicedLayer is one rank's shard of a Transformer encoder layer under
// Megatron-style tensor slicing (Fig. 10), with the group's World() ranks
// as the m ways. The shard is itself an nn.EncoderLayer: the rank holds
// 1/m of the attention heads (column-split Q/K/V projections), the
// matching row-split slice of the output projection, a column-split FC-1
// and row-split FC-2 slice, and a full replica of the LayerNorms; it runs
// the same attention, feed-forward and Add&Norm modules as the unsliced
// layer and inherits its Causal flag. The two forward
// partial-sum AllReduces (after the output projection and after FC-2) and
// the two backward input-gradient AllReduces (into the FC-1 and Q/K/V
// inputs) are the group's ring AllReduce — Section 5.1's four AllReduces
// per layer.
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
	g     *Group
	shard *nn.EncoderLayer
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
	attn := nn.NewAttentionFrom(
		sliceLinearRows(ref.Attn.Wq, w*dm, dm),
		sliceLinearRows(ref.Attn.Wk, w*dm, dm),
		sliceLinearRows(ref.Attn.Wv, w*dm, dm),
		sliceLinearCols(ref.Attn.Wo, w*dm, dm, w == 0),
		heads/m)
	attn.Causal = ref.Attn.Causal
	return &SlicedLayer{g: g, shard: &nn.EncoderLayer{
		Attn:     attn,
		AttnDrop: nn.NewDropout(0, profile.CatDRRCLN),
		AttnLN:   cloneLN(ref.AttnLN, dModel),
		FF: &nn.FeedForward{
			FC1: sliceLinearRows(ref.FF.FC1, w*ffm, ffm),
			FC2: sliceLinearCols(ref.FF.FC2, w*ffm, ffm, w == 0),
			Act: nn.NewGeLU(),
		},
		FFDrop: nn.NewDropout(0, profile.CatDRRCLN),
		FFLN:   cloneLN(ref.FFLN, dModel),
	}}, nil
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
	l := nn.NewLinear("ts.colpar", ref.In(), count, ref.Category, tensor.NewRNG(1))
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
	l := nn.NewLinear("ts.rowpar", count, out, ref.Category, tensor.NewRNG(1))
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
	l := s.shard
	attnOut := l.Attn.Forward(ctx, x, b, n, nil)
	if err := s.g.AllReduce(tagSlice, attnOut.Data()); err != nil {
		return nil, err
	}
	h := l.AttnLN.Forward(ctx, nn.Residual{}.AddSkip(ctx, attnOut, x))

	// FC block: column-parallel FC-1 + GeLU, row-parallel FC-2 partial.
	ffOut := l.FF.Forward(ctx, h)
	if err := s.g.AllReduce(tagSlice+1, ffOut.Data()); err != nil {
		return nil, err
	}
	return l.FFLN.Forward(ctx, nn.Residual{}.AddSkip(ctx, ffOut, h)), nil
}

// Backward propagates dY through the sliced layer and returns dX. The two
// backward AllReduces combine the ranks' partial input gradients.
func (s *SlicedLayer) Backward(ctx *nn.Ctx, dY *tensor.Tensor) (*tensor.Tensor, error) {
	l := s.shard
	dSum2 := l.FFLN.Backward(ctx, dY)
	dH := l.FF.Backward(ctx, dSum2)
	if err := s.g.AllReduce(tagSlice+2, dH.Data()); err != nil {
		return nil, err
	}
	// The skip connection adds the post-LN gradient directly.
	ctx.Pool.AccumulateInto(dH.Data(), dSum2.Data())

	dSum := l.AttnLN.Backward(ctx, dH)
	dX := l.Attn.Backward(ctx, dSum)
	if err := s.g.AllReduce(tagSlice+3, dX.Data()); err != nil {
		return nil, err
	}
	ctx.Pool.AccumulateInto(dX.Data(), dSum.Data())
	return dX, nil
}

// Params returns the shard's parameters: its slices of the projections and
// feed-forward layers, and its replicas of the LayerNorms.
func (s *SlicedLayer) Params() []*nn.Param { return s.shard.Params() }
