package nn

import (
	"demystbert/internal/kernels"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// GeLU is the Gaussian Error Linear Unit activation between the two FC
// GEMMs of the feed-forward block (paper Eq. 1).
type GeLU struct {
	x *tensor.Tensor // a training forward's input, saved for Backward
}

// NewGeLU returns a GeLU activation module.
func NewGeLU() *GeLU { return &GeLU{} }

// Forward applies GELU element-wise, saving x for Backward in training.
func (g *GeLU) Forward(ctx *Ctx, x *tensor.Tensor) *tensor.Tensor {
	if ctx.Train {
		g.x = x
	}
	y := ctx.NewActivation(x.Shape()...)
	n := x.Size()
	es := ctx.ElemSize()
	// The unfused kernel sequence performs ~5 ops per element
	// (scale, erf, add, halve, multiply).
	ctx.Prof.Time("gelu_fwd", profile.CatGeLU, profile.Forward,
		kernels.EWFLOPs(n, 5), kernels.EWBytes(n, 1, 1, es), func() {
			ctx.Pool.GeLUForward(y.Data(), x.Data())
		})
	ctx.StoreHalf(y)
	return y
}

// Backward applies the exact GELU derivative.
func (g *GeLU) Backward(ctx *Ctx, dY *tensor.Tensor) *tensor.Tensor {
	if g.x == nil {
		panic("nn: GeLU.Backward called before Forward")
	}
	dX := ctx.NewActivation(dY.Shape()...)
	n := dY.Size()
	es := ctx.ElemSize()
	ctx.Prof.Time("gelu_bwd", profile.CatGeLU, profile.Backward,
		kernels.EWFLOPs(n, 8), kernels.EWBytes(n, 2, 1, es), func() {
			ctx.Pool.GeLUBackward(dX.Data(), dY.Data(), g.x.Data())
		})
	g.x = nil
	return dX
}

// Params returns nil; GeLU has no parameters.
func (g *GeLU) Params() []*Param { return nil }

// Dropout randomly zeroes activations at training time using an inverted
// mask, and is an identity in evaluation mode.
type Dropout struct {
	// P is the drop probability.
	P float32
	// Category attributes the dropout kernels in profiles (attention
	// dropout belongs to Scale+Mask+DR+SM; block dropout to DR+RC+LN).
	Category profile.Category

	mask *tensor.Tensor
}

// NewDropout returns a dropout module with probability p recorded under
// the given profile category.
func NewDropout(p float32, cat profile.Category) *Dropout {
	return &Dropout{P: p, Category: cat}
}

// Forward samples a fresh mask in training mode and applies it.
func (d *Dropout) Forward(ctx *Ctx, x *tensor.Tensor) *tensor.Tensor {
	mask := d.fillMask(ctx, x)
	if mask == nil {
		return x
	}
	y := ctx.NewActivation(x.Shape()...)
	n := x.Size()
	es := ctx.ElemSize()
	ctx.Prof.Time("dropout_fwd", d.Category, profile.Forward,
		kernels.EWFLOPs(n, 1), kernels.EWBytes(n, 2, 1, es), func() {
			ctx.Pool.DropoutApply(y.Data(), x.Data(), mask.Data())
		})
	return y
}

// fillMask returns the mask for an activation shaped like x, saved for
// Backward: a fresh one in training mode, the saved one replayed in a
// checkpointed recompute, nil when the dropout is inactive. Forward
// applies it; attention multiplies it in inside its own region. An
// evaluation pass writes nothing here.
func (d *Dropout) fillMask(ctx *Ctx, x *tensor.Tensor) *tensor.Tensor {
	if !ctx.Train {
		return nil
	}
	if d.P == 0 {
		d.mask = nil
		return nil
	}
	if ctx.Recompute && d.mask != nil && tensor.SameShape(d.mask, x) {
		// Checkpointed recompute: replay the saved mask so the recomputed
		// activation matches the original bit-for-bit.
		return d.mask
	}
	// The fill draws one RNG stream — in parallel chunks, each skipped to
	// its start, so the mask does not depend on the worker count — and is
	// a kernel of its own in the profile: n float32 written, no
	// arithmetic.
	d.mask = ctx.NewActivation(x.Shape()...)
	ctx.Prof.Time("dropout_mask", d.Category, profile.Forward,
		0, int64(x.Size())*4, func() {
			ctx.Pool.DropoutMask(d.mask.Data(), d.P, ctx.RNG)
		})
	return d.mask
}

// Backward propagates gradients through the saved mask.
func (d *Dropout) Backward(ctx *Ctx, dY *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return dY
	}
	dX := ctx.NewActivation(dY.Shape()...)
	n := dY.Size()
	es := ctx.ElemSize()
	ctx.Prof.Time("dropout_bwd", d.Category, profile.Backward,
		kernels.EWFLOPs(n, 1), kernels.EWBytes(n, 2, 1, es), func() {
			ctx.Pool.DropoutApply(dX.Data(), dY.Data(), d.mask.Data())
		})
	d.mask = nil
	return dX
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
