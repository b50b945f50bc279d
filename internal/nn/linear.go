package nn

import (
	"fmt"

	"demystbert/internal/kernels"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// Linear is a fully-connected layer computing Y = X·W^T + b for
// X: [tokens, in], W: [out, in], b: [out].
//
// Its three GEMMs follow Table 2b exactly:
//
//	FWD:        out × tokens × in   (Y = X·W^T)
//	BWD d-act:  in  × tokens × out  (dX = dY·W)
//	BWD d-wgt:  out × in × tokens   (dW = dY^T·X)
type Linear struct {
	W, B *Param
	// Category classifies this layer's GEMMs in profiles: CatLinear for
	// attention projections, CatFCGEMM for feed-forward layers,
	// CatOutput for model heads.
	Category profile.Category

	in, out int
	x       *tensor.Tensor // a training forward's input, saved for Backward
}

// NewLinear returns a Linear layer with Xavier-initialized weights.
func NewLinear(name string, in, out int, cat profile.Category, rng *tensor.RNG) *Linear {
	l := &Linear{
		W:        NewParam(name+".weight", out, in),
		B:        NewParam(name+".bias", out),
		Category: cat,
		in:       in,
		out:      out,
	}
	l.W.Value.FillXavier(rng, in, out)
	return l
}

// Forward computes Y = X·W^T + b, saving X for the backward pass in
// training. The bias add is fused into the GEMM's tile write-back
// (kernels.GEMMPackedEpilogue), which is bitwise identical to the legacy
// GEMM-then-AddBias sequence.
func (l *Linear) Forward(ctx *Ctx, x *tensor.Tensor) *tensor.Tensor {
	ctx.ep = kernels.Epilogue{Kind: kernels.EpilogueBias}
	return l.runEpilogueGEMM(ctx, x, &ctx.ep)
}

// ForwardBiasGeLU computes GeLU(X·W^T + b) with bias and activation fused
// into the GEMM write-back, filling act's saved pre-activation (training
// only) so act.Backward works unchanged: in mixed precision the saved and
// activated values are the pre-activation after its binary16 store, as
// between Forward and GeLU.Forward.
func (l *Linear) ForwardBiasGeLU(ctx *Ctx, x *tensor.Tensor, act *GeLU) *tensor.Tensor {
	tokens, _ := mustRank2("Linear", x)
	ctx.ep = kernels.Epilogue{Kind: kernels.EpilogueBiasGeLU}
	if ctx.Train {
		act.x = ctx.NewActivation(tokens, l.out)
		ctx.ep.X = act.x.Data()
	}
	y := l.runEpilogueGEMM(ctx, x, &ctx.ep)
	markFusedTail(ctx, "gelu_fwd", profile.CatGeLU, tokens*l.out, 5, 1)
	ctx.StoreHalf(y)
	return y
}

// ForwardBiasResidualLN computes LN(drop(X·W^T + b) + skip): a sub-layer
// output projection with its whole Add&Norm tail fused into the GEMM
// write-back. drop fills its mask before the product, or replays it in a
// checkpointed recompute, and ln's saved input and statistics are filled
// in training, so drop.Backward and ln.Backward work unchanged. The values
// and profile events are those of Forward → Dropout.Forward →
// Residual.AddSkip → LayerNorm.Forward.
func (l *Linear) ForwardBiasResidualLN(ctx *Ctx, x, skip *tensor.Tensor, drop *Dropout, ln *LayerNorm) *tensor.Tensor {
	tokens, _ := mustRank2("Linear", x)
	if sr, sc := mustRank2("Linear residual skip", skip); sr != tokens || sc != l.out {
		panic(fmt.Sprintf("nn: Linear residual skip %v, want [%d, %d]", skip.Shape(), tokens, l.out))
	}
	if ln.dim != l.out {
		panic(fmt.Sprintf("nn: Linear fused LayerNorm dim %d, want %d", ln.dim, l.out))
	}
	ctx.ep = kernels.Epilogue{
		Kind:     kernels.EpilogueBiasResidualLayerNorm,
		Residual: skip.Data(),
		Gamma:    ln.Gamma.Value.Data(),
		Beta:     ln.Beta.Value.Data(),
		Eps:      ln.Eps,
	}
	ep := &ctx.ep
	mask := drop.fillMask(ctx, skip)
	if mask != nil {
		ep.Mask = mask.Data()
	}
	if ctx.Train {
		ln.x = ctx.NewActivation(tokens, l.out)
		ln.mean = ctx.NewActivation(tokens)
		ln.invStd = ctx.NewActivation(tokens)
		ep.X, ep.Mean, ep.InvStd = ln.x.Data(), ln.mean.Data(), ln.invStd.Data()
	}
	y := l.runEpilogueGEMM(ctx, x, ep)
	sz := tokens * l.out
	if mask != nil {
		markFusedTail(ctx, "dropout_fwd", drop.Category, sz, 1, 2)
	}
	markFusedTail(ctx, "residual_add", profile.CatDRRCLN, sz, 1, 2)
	markFusedTail(ctx, "layernorm_fwd", profile.CatDRRCLN, sz, 8, 1)
	ctx.StoreHalf(y)
	return y
}

// runEpilogueGEMM executes the forward product with the given fused tail
// and the layer's bias, saving X for backward in training. In mixed
// precision the tail first rounds acc + bias through binary16
// (Epilogue.Half): the store of the product to half storage and back,
// taken in the write-back. The whole fused call is timed as
// "linear_fwd_gemm" with exactly the product's FLOPs — the integration
// tests reconcile real against analytical GEMM FLOPs by event name, so
// tail-operator work must not leak into GEMM accounting; the bias add
// follows as a marker.
func (l *Linear) runEpilogueGEMM(ctx *Ctx, x *tensor.Tensor, ep *kernels.Epilogue) *tensor.Tensor {
	tokens, in := mustRank2("Linear", x)
	if in != l.in {
		panic(fmt.Sprintf("nn: Linear input features %d, want %d", in, l.in))
	}
	if ctx.Train {
		l.x = x
	}
	ep.Bias, ep.Half = l.B.Value.Data(), ctx.MixedPrecision
	y := ctx.NewActivation(tokens, l.out)
	es := ctx.ElemSize()

	// The weight operand is packed at most once per parameter generation
	// and reused across micro-batches, gradient-accumulation steps, and
	// eval (nn.Param caches); a weight used once per generation — a plain
	// training step — is packed per call instead, with the same fused tail:
	// on at most two row blocks of tokens (train_update's 128, the MLM
	// head's masked rows) one micro-panel at a time by the column segment
	// that consumes it (kernels' short-stripe route), taller batches one
	// depth × column block at a time. Every route gives the same bits.
	m, n, k := tokens, l.out, l.in
	ctx.Prof.Time("linear_fwd_gemm", l.Category, profile.Forward,
		kernels.GEMMFLOPs(m, n, k), kernels.GEMMBytes(m, n, k, es), func() {
			ctx.Route.GEMMPackedEpilogue(ctx.Pool, false, m, n, k, 1, x.Data(), l.W.Packed(ctx.Route, ctx.Pool, true, n, k), ep, y.Data())
		})
	markFusedTail(ctx, "linear_fwd_bias", l.Category, m*n, 1, 1)
	return y
}

// markFusedTail records a zero-duration marker event for a tail operator
// of ops operations per element over n elements (reads inputs, one
// output) executed inside a fused GEMM write-back, so operator-level
// FLOP/byte accounting (and the paper's category breakdowns) still see
// the op while its wall time is attributed to the GEMM that absorbed it.
func markFusedTail(ctx *Ctx, name string, cat profile.Category, n, ops, reads int) {
	ctx.Prof.Time(name, cat, profile.Forward, kernels.EWFLOPs(n, ops), kernels.EWBytes(n, reads, 1, ctx.ElemSize()), func() {})
}

// Backward computes dX = dY·W, accumulates dW += dY^T·X and db += colsum(dY).
func (l *Linear) Backward(ctx *Ctx, dY *tensor.Tensor) *tensor.Tensor {
	tokens, out := mustRank2("Linear.Backward", dY)
	if out != l.out {
		panic(fmt.Sprintf("nn: Linear upstream gradient features %d, want %d", out, l.out))
	}
	if l.x == nil {
		panic("nn: Linear.Backward called before Forward")
	}
	es := ctx.ElemSize()
	dX := ctx.NewActivation(tokens, l.in)

	// dX = dY · W: (tokens×out)·(out×in), on the weight pack for the
	// untransposed orientation (a second cache slot of the same Param)
	// once the generation is reused. On a first use W is packed per call,
	// or — on at most two row blocks of tokens — read in place, row
	// stride in, by the micro-kernel (kernels' short-stripe route).
	// dW below has the output features as its rows, so at BERT's widths
	// (≥ 256) it keeps the per-call schedule.
	m, n, k := tokens, l.in, l.out
	ctx.Prof.Time("linear_bwd_dgrad_gemm", l.Category, profile.Backward,
		kernels.GEMMFLOPs(m, n, k), kernels.GEMMBytes(m, n, k, es), func() {
			ctx.Route.GEMMPacked(ctx.Pool, false, m, n, k, 1, dY.Data(), l.W.Packed(ctx.Route, ctx.Pool, false, n, k), 0, dX.Data())
		})

	// dW += dY^T · X: (out×tokens)·(tokens×in).
	m, n, k = l.out, l.in, tokens
	ctx.Prof.Time("linear_bwd_wgrad_gemm", l.Category, profile.Backward,
		kernels.GEMMFLOPs(m, n, k), kernels.GEMMBytes(m, n, k, es), func() {
			ctx.Route.GEMM(ctx.Pool, true, false, m, n, k, 1, dY.Data(), l.x.Data(), 1, l.W.Grad.Data())
		})

	ctx.Prof.Time("linear_bwd_bgrad", l.Category, profile.Backward,
		kernels.EWFLOPs(tokens*l.out, 1), kernels.EWBytes(tokens*l.out, 1, 0, es)+int64(l.out*es), func() {
			ctx.Pool.BiasGrad(l.B.Grad.Data(), dY.Data(), tokens, l.out)
		})
	l.x = nil
	ctx.StoreHalf(dX)
	return dX
}

// WarmPack builds the forward-orientation weight pack ahead of use —
// the serving warmup that turns every steady-state pack-cache lookup
// into a hit, where Forward alone would pack per call on its first use and
// build on its second. Frozen weights never bump their generation, so a
// warmed pack stays valid for the life of the process. It packs on pool.
func (l *Linear) WarmPack(pool *kernels.Pool) {
	l.W.packs.Warm(pool, true, l.out, l.in, l.W.Value.Data(), l.W.gen.Load())
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// In returns the input feature count.
func (l *Linear) In() int { return l.in }

// Out returns the output feature count.
func (l *Linear) Out() int { return l.out }
