package nn

import (
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// FeedForward is the FC block of the Transformer layer: FC-1 expanding to
// the intermediate dimension d_ff, GeLU, and FC-2 projecting back
// (Table 2b FC-1/FC-2).
type FeedForward struct {
	FC1, FC2 *Linear
	Act      *GeLU
}

// NewFeedForward builds the FC block for widths dModel→dFF→dModel.
func NewFeedForward(name string, dModel, dFF int, rng *tensor.RNG) *FeedForward {
	return &FeedForward{
		FC1: NewLinear(name+".fc1", dModel, dFF, profile.CatFCGEMM, rng),
		FC2: NewLinear(name+".fc2", dFF, dModel, profile.CatFCGEMM, rng),
		Act: NewGeLU(),
	}
}

// Forward computes FC2(GeLU(FC1(x))).
func (f *FeedForward) Forward(ctx *Ctx, x *tensor.Tensor) *tensor.Tensor {
	return f.FC2.Forward(ctx, f.forwardHidden(ctx, x))
}

// forwardHidden computes GeLU(FC1(x)), fusing bias+GeLU into the FC1 GEMM
// write-back when numerically transparent. In mixed precision the legacy
// sequence quantizes the pre-activation through f16 storage between the
// two modules — a boundary fusion deliberately skips — so MP defers to
// the unfused modules to keep the established numerics.
func (f *FeedForward) forwardHidden(ctx *Ctx, x *tensor.Tensor) *tensor.Tensor {
	if ctx.MixedPrecision {
		return f.Act.Forward(ctx, f.FC1.Forward(ctx, x))
	}
	return f.FC1.ForwardBiasGeLU(ctx, x, f.Act)
}

// Backward propagates through FC2, GeLU, FC1.
func (f *FeedForward) Backward(ctx *Ctx, dY *tensor.Tensor) *tensor.Tensor {
	return f.FC1.Backward(ctx, f.Act.Backward(ctx, f.FC2.Backward(ctx, dY)))
}

// Params returns both FC layers' parameters.
func (f *FeedForward) Params() []*Param { return collectParams(f.FC1, f.FC2) }

// EncoderLayer is one Transformer encoder layer (Fig. 2(a,b)): multi-head
// attention and feed-forward sub-layers, each followed by dropout, a
// residual connection, and LayerNorm (post-LN, as in the original BERT).
type EncoderLayer struct {
	Attn     *MultiHeadAttention
	AttnDrop *Dropout
	AttnLN   *LayerNorm
	FF       *FeedForward
	FFDrop   *Dropout
	FFLN     *LayerNorm

	res Residual
}

// NewEncoderLayer builds a Transformer encoder layer.
func NewEncoderLayer(name string, dModel, heads, dFF int, dropP float32, rng *tensor.RNG) *EncoderLayer {
	return &EncoderLayer{
		Attn:     NewMultiHeadAttention(name+".attn", dModel, heads, dropP, rng),
		AttnDrop: NewDropout(dropP, profile.CatDRRCLN),
		AttnLN:   NewLayerNorm(name+".attn_ln", dModel),
		FF:       NewFeedForward(name+".ff", dModel, dFF, rng),
		FFDrop:   NewDropout(dropP, profile.CatDRRCLN),
		FFLN:     NewLayerNorm(name+".ff_ln", dModel),
	}
}

// Forward runs the layer over x: [B·n, dModel] with an optional additive
// [B, n] attention mask.
func (e *EncoderLayer) Forward(ctx *Ctx, x *tensor.Tensor, b, n int, mask *tensor.Tensor) *tensor.Tensor {
	return e.forwardFrom(ctx, x, e.Attn.forwardCore(ctx, x, e.Attn.uniform(b, n), mask))
}

// ForwardRagged runs the layer in evaluation mode over a padding-free
// batch: x is [T, dModel] and sequence s owns rows offsets[s]..offsets[s+1].
// Only attention knows where a sequence ends; every other operator sees T
// rows. Nothing is saved for Backward, so a training context is refused.
func (e *EncoderLayer) ForwardRagged(ctx *Ctx, x *tensor.Tensor, offsets []int) *tensor.Tensor {
	if ctx.Train {
		panic("nn: ragged forward is evaluation-only")
	}
	return e.forwardFrom(ctx, x, e.Attn.forwardCore(ctx, x, offsets, nil))
}

// forwardFrom runs the layer from the merged attention heads on: output
// projection, Add&Norm, feed-forward, Add&Norm.
func (e *EncoderLayer) forwardFrom(ctx *Ctx, x, merged *tensor.Tensor) *tensor.Tensor {
	var h *tensor.Tensor
	if fuseResidualLN(ctx, e.AttnDrop) {
		// The block dropout is inactive, so its module call is skipped
		// entirely; a training pass clears any stale mask so its Backward
		// stays an identity. The output projection absorbs the Add&Norm
		// tail (bias, residual skip addition, LayerNorm) into its GEMM
		// write-back.
		if ctx.Train {
			e.AttnDrop.mask = nil
		}
		h = e.Attn.Wo.ForwardBiasResidualLN(ctx, merged, x, e.AttnLN)
	} else {
		attnOut := e.Attn.Wo.Forward(ctx, merged)
		attnOut = e.AttnDrop.Forward(ctx, attnOut)
		h = e.res.AddSkip(ctx, attnOut, x)
		h = e.AttnLN.Forward(ctx, h)
	}

	if fuseResidualLN(ctx, e.FFDrop) {
		if ctx.Train {
			e.FFDrop.mask = nil
		}
		hidden := e.FF.forwardHidden(ctx, h)
		return e.FF.FC2.ForwardBiasResidualLN(ctx, hidden, h, e.FFLN)
	}
	ffOut := e.FF.Forward(ctx, h)
	ffOut = e.FFDrop.Forward(ctx, ffOut)
	out := e.res.AddSkip(ctx, ffOut, h)
	return e.FFLN.Forward(ctx, out)
}

// fuseResidualLN reports whether a sub-layer's Add&Norm tail can fuse
// into its preceding projection GEMM: the block dropout sitting between
// them must be inactive (eval, or drop probability zero) and precision
// must be full — the legacy sequence's f16 storage boundaries are part of
// the established MP numerics and fusion would skip them.
func fuseResidualLN(ctx *Ctx, d *Dropout) bool {
	return !ctx.MixedPrecision && (!ctx.Train || d.P == 0)
}

// Backward propagates through the layer. Residual connections split the
// gradient: the skip path adds the post-LN gradient to the sub-layer
// input gradient.
func (e *EncoderLayer) Backward(ctx *Ctx, dY *tensor.Tensor) *tensor.Tensor {
	// FF sub-layer.
	dSum := e.FFLN.Backward(ctx, dY) // gradient at (ffOut + h)
	dFF := e.FFDrop.Backward(ctx, dSum)
	dH := e.FF.Backward(ctx, dFF)
	// Skip path contributes dSum directly to h's gradient.
	addGrad(ctx, dH, dSum)

	// Attention sub-layer.
	dSum2 := e.AttnLN.Backward(ctx, dH) // gradient at (attnOut + x)
	dAttn := e.AttnDrop.Backward(ctx, dSum2)
	dX := e.Attn.Backward(ctx, dAttn)
	addGrad(ctx, dX, dSum2)
	return dX
}

// addGrad records the residual-skip gradient accumulation dst += src.
func addGrad(ctx *Ctx, dst, src *tensor.Tensor) {
	n := dst.Size()
	es := ctx.ElemSize()
	ctx.Prof.Time("residual_add_bwd", profile.CatDRRCLN, profile.Backward,
		int64(n), int64(n)*int64(3*es), func() {
			ctx.Pool.AccumulateInto(dst.Data(), src.Data())
		})
}

// Params returns all parameters of the layer.
func (e *EncoderLayer) Params() []*Param {
	ps := e.Attn.Params()
	ps = append(ps, e.AttnLN.Params()...)
	ps = append(ps, e.FF.Params()...)
	ps = append(ps, e.FFLN.Params()...)
	return ps
}
