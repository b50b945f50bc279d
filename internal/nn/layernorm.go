package nn

import (
	"fmt"

	"demystbert/internal/kernels"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// LayerNorm normalizes each token vector to zero mean and unit variance
// with a learned affine transform, as in the Add&Norm blocks of Fig. 2(b).
type LayerNorm struct {
	Gamma, Beta *Param
	Eps         float32

	dim int
	// A training forward's input and row statistics, saved for Backward.
	x            *tensor.Tensor
	mean, invStd *tensor.Tensor
}

// NewLayerNorm returns a LayerNorm over the last dimension of size dim,
// initialized to the identity transform (gamma=1, beta=0).
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Gamma: NewParam(name+".gamma", dim),
		Beta:  NewParam(name+".beta", dim),
		Eps:   1e-5,
		dim:   dim,
	}
	ln.Gamma.Value.Fill(1)
	return ln
}

// Forward normalizes rows, saving the input and statistics for backward
// in training.
func (l *LayerNorm) Forward(ctx *Ctx, x *tensor.Tensor) *tensor.Tensor {
	rows, dim := mustRank2("LayerNorm", x)
	if dim != l.dim {
		panic(fmt.Sprintf("nn: LayerNorm features %d, want %d", dim, l.dim))
	}
	mean, invStd := ctx.NewActivation(rows), ctx.NewActivation(rows)
	if ctx.Train {
		l.x, l.mean, l.invStd = x, mean, invStd
	}
	y := ctx.NewActivation(rows, dim)
	n := rows * dim
	es := ctx.ElemSize()
	// LN is a reduction plus a few EW ops: ~8 ops/element.
	ctx.Prof.Time("layernorm_fwd", profile.CatDRRCLN, profile.Forward,
		kernels.EWFLOPs(n, 8), kernels.EWBytes(n, 1, 1, es), func() {
			ctx.Pool.LayerNormForward(y.Data(), x.Data(), l.Gamma.Value.Data(), l.Beta.Value.Data(),
				mean.Data(), invStd.Data(), rows, dim, l.Eps)
		})
	ctx.StoreHalf(y)
	return y
}

// Backward computes the input gradient and accumulates dGamma/dBeta.
func (l *LayerNorm) Backward(ctx *Ctx, dY *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: LayerNorm.Backward called before Forward")
	}
	rows, dim := mustRank2("LayerNorm.Backward", dY)
	dX := ctx.NewActivation(rows, dim)
	n := rows * dim
	es := ctx.ElemSize()
	ctx.Prof.Time("layernorm_bwd", profile.CatDRRCLN, profile.Backward,
		kernels.EWFLOPs(n, 14), kernels.EWBytes(n, 3, 1, es), func() {
			ctx.Pool.LayerNormBackward(dX.Data(), l.Gamma.Grad.Data(), l.Beta.Grad.Data(),
				dY.Data(), l.x.Data(), l.Gamma.Value.Data(), l.mean.Data(), l.invStd.Data(), rows, dim)
		})
	l.x, l.mean, l.invStd = nil, nil, nil
	return dX
}

// Params returns gamma and beta.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// Residual adds a saved skip input to the module input: y = x + skip.
// The paper groups it with dropout and LayerNorm (DR+RC+LN).
type Residual struct{}

// AddSkip computes y = x + skip, recording the residual-connection kernel.
func (Residual) AddSkip(ctx *Ctx, x, skip *tensor.Tensor) *tensor.Tensor {
	if !tensor.SameShape(x, skip) {
		panic(fmt.Sprintf("nn: Residual shapes %v vs %v", x.Shape(), skip.Shape()))
	}
	y := ctx.NewActivation(x.Shape()...)
	n := x.Size()
	es := ctx.ElemSize()
	ctx.Prof.Time("residual_add", profile.CatDRRCLN, profile.Forward,
		kernels.EWFLOPs(n, 1), kernels.EWBytes(n, 2, 1, es), func() {
			ctx.Pool.Add(y.Data(), x.Data(), skip.Data())
		})
	return y
}
