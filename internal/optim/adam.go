package optim

import (
	"math"

	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// Adam implements the Adam optimizer in two kernel organizations that
// compute identical updates, reproducing the paper's fusion study
// (Section 6.1.1, Fig. 12a):
//
//   - Fused: one multi-tensor kernel per chunk of parameter tensors, each
//     element touched with a single read-modify-write pass — the
//     apex-style "fused Adam".
//   - Unfused: every elementary operation (scale, multiply, add, square,
//     sqrt, divide, apply) launches its own kernel with its own pass over
//     memory, materializing temporaries — the default eager execution.
//
// The unfused form launches ~kernelsPerTensor × tensors kernels and moves
// 6–8× more bytes; fusing collapses kernel count by orders of magnitude
// but, because different tensors' state is independent data, cannot reduce
// traffic below one read of g/m/v/w and one write of m/v/w — exactly the
// paper's observation of why Adam/LAMB fusion saves less than LayerNorm
// fusion.
type Adam struct {
	LR    float32
	Beta1 float32
	Beta2 float32
	Eps   float32
	Fused bool
	// MultiTensorChunk is how many parameter tensors one fused kernel
	// covers (apex multi_tensor_apply batches many tensors per launch).
	MultiTensorChunk int

	step int
	m, v map[*nn.Param]*tensor.Tensor
}

// NewAdam returns an Adam optimizer; fused selects the kernel organization.
func NewAdam(lr float32, fused bool) *Adam {
	return &Adam{
		LR:               lr,
		Beta1:            0.9,
		Beta2:            0.999,
		Eps:              1e-8,
		Fused:            fused,
		MultiTensorChunk: 320,
		m:                make(map[*nn.Param]*tensor.Tensor),
		v:                make(map[*nn.Param]*tensor.Tensor),
	}
}

// StepCount returns the number of updates applied so far.
func (o *Adam) StepCount() int { return o.step }

// State returns the momentum and velocity tensors for p, allocating them
// on first use. Both kernel organizations share this state, so switching
// between fused and unfused mid-run cannot fork the moments.
func (o *Adam) State(p *nn.Param) (m, v *tensor.Tensor) {
	if o.m[p] == nil {
		o.m[p] = tensor.New(p.Value.Shape()...)
		o.v[p] = tensor.New(p.Value.Shape()...)
	}
	return o.m[p], o.v[p]
}

// ReleaseState drops p's optimizer state from the resident maps (see
// LAMB.ReleaseState — the virtual-shard spill path).
func (o *Adam) ReleaseState(p *nn.Param) {
	delete(o.m, p)
	delete(o.v, p)
}

// AdamStep is one iteration's update context: the bias-correction terms,
// fixed once per Prepare. As with LAMBStep, Apply may be called once
// with all parameters or once per shard; the step count — and therefore
// bc1/bc2 — advances exactly once per iteration regardless, and is shared
// between the fused and unfused kernel organizations. This is what keeps
// bias correction in sync when gradient accumulation or a loss-scale skip
// makes iterations and optimizer calls no longer one-to-one: a skipped
// step simply never calls Prepare, and no partial application can
// advance the count twice.
type AdamStep struct {
	o        *Adam
	bc1, bc2 float32
}

// Prepare advances the step count once and fixes this iteration's
// bias-correction terms. Adam has no cross-parameter reduction, so the
// arguments (LAMB's global clip needs them) go unused.
func (o *Adam) Prepare(*nn.Ctx, []*nn.Param) Applier {
	o.step++
	return &AdamStep{
		o:   o,
		bc1: 1 - float32(math.Pow(float64(o.Beta1), float64(o.step))),
		bc2: 1 - float32(math.Pow(float64(o.Beta2), float64(o.step))),
	}
}

// Step applies one Adam update to every parameter.
func (o *Adam) Step(ctx *nn.Ctx, params []*nn.Param) {
	o.Prepare(ctx, params).Apply(ctx, params)
}

// Apply updates params — any subset of the trainable set — using this
// iteration's fixed bias correction.
func (s *AdamStep) Apply(ctx *nn.Ctx, params []*nn.Param) {
	if s.o.Fused {
		s.o.stepFused(ctx, params, s.bc1, s.bc2)
	} else {
		s.o.stepUnfused(ctx, params, s.bc1, s.bc2)
	}
}

// stepFused processes MultiTensorChunk tensors per kernel launch with one
// pass over memory: read g, m, v, w; write m, v, w.
func (o *Adam) stepFused(ctx *nn.Ctx, params []*nn.Param, bc1, bc2 float32) {
	chunk := o.MultiTensorChunk
	if chunk < 1 {
		chunk = 1
	}
	for lo := 0; lo < len(params); lo += chunk {
		hi := lo + chunk
		if hi > len(params) {
			hi = len(params)
		}
		group := params[lo:hi]
		ctx.Prof.Time("adam_fused_multitensor", profile.CatOptimizer, profile.Update,
			totalFLOPs(group, 11), totalBytes(group, 4, 3), func() {
				for _, p := range group {
					m, v := o.State(p)
					md, vd, gd, wd := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data()
					ctx.Pool.ParallelRange(len(gd), func(lo, hi int) {
						for i := lo; i < hi; i++ {
							g := gd[i]
							// Each product is rounded before its add,
							// so arm64 does not fuse them (check.sh).
							md[i] = float32(o.Beta1*md[i]) + float32((1-o.Beta1)*g)
							vd[i] = float32(o.Beta2*vd[i]) + float32((1-o.Beta2)*g*g)
							wd[i] -= o.LR * (md[i] / bc1) / (sqrt32(vd[i]/bc2) + o.Eps)
						}
					})
					p.BumpGen() // weights changed: invalidate cached GEMM packs
				}
			})
	}
}

// stepUnfused launches one kernel per elementary operation per tensor,
// with temporaries flushed to memory between kernels, mirroring how an
// eager framework executes an optimizer written as tensor expressions.
func (o *Adam) stepUnfused(ctx *nn.Ctx, params []*nn.Param, bc1, bc2 float32) {
	for _, p := range params {
		m, v := o.State(p)
		n := p.Size()
		tmp := make([]float32, n)
		tmp2 := make([]float32, n)
		es := fp32Size

		run := func(kernel string, reads, writes int, f func()) {
			ctx.Prof.Time(kernel, profile.CatOptimizer, profile.Update,
				kernels.EWFLOPs(n, 1), kernels.EWBytes(n, reads, writes, es), f)
		}

		md, vd, gd, wd := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data()
		// m = beta1*m
		run("adam_m_scale", 1, 1, func() { ctx.Pool.Scale(md, md, o.Beta1) })
		// tmp = (1-beta1)*g
		run("adam_g_scale", 1, 1, func() { ctx.Pool.Scale(tmp, gd, 1-o.Beta1) })
		// m += tmp
		run("adam_m_add", 2, 1, func() { ctx.Pool.AccumulateInto(md, tmp) })
		// v = beta2*v
		run("adam_v_scale", 1, 1, func() { ctx.Pool.Scale(vd, vd, o.Beta2) })
		// tmp = g*g
		run("adam_g_square", 1, 1, func() { ctx.Pool.Mul(tmp, gd, gd) })
		// tmp = (1-beta2)*tmp
		run("adam_gsq_scale", 1, 1, func() { ctx.Pool.Scale(tmp, tmp, 1-o.Beta2) })
		// v += tmp
		run("adam_v_add", 2, 1, func() { ctx.Pool.AccumulateInto(vd, tmp) })
		// tmp = v/bc2 (bias-corrected velocity)
		run("adam_v_bias", 1, 1, func() { ctx.Pool.Scale(tmp, vd, 1/bc2) })
		// tmp = sqrt(tmp) + eps
		run("adam_sqrt_eps", 1, 1, func() {
			for i := range tmp {
				tmp[i] = sqrt32(tmp[i]) + o.Eps
			}
		})
		// tmp2 = m/bc1 (bias-corrected momentum)
		run("adam_m_bias", 1, 1, func() { ctx.Pool.Scale(tmp2, md, 1/bc1) })
		// tmp2 = tmp2/tmp
		run("adam_div", 2, 1, func() {
			for i := range tmp2 {
				tmp2[i] /= tmp[i]
			}
		})
		// w -= lr*tmp2
		run("adam_apply", 2, 1, func() {
			for i := range wd {
				wd[i] -= float32(o.LR * tmp2[i])
			}
		})
		p.BumpGen() // weights changed: invalidate cached GEMM packs
	}
}

// UnfusedKernelsPerTensor is the kernel count the unfused Adam launches
// per parameter tensor.
const UnfusedKernelsPerTensor = 12

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}

// SGD is the plain stochastic-gradient-descent baseline: w -= lr·g.
type SGD struct {
	LR float32
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr float32) *SGD { return &SGD{LR: lr} }

// Step applies w -= lr·g to every parameter, one kernel per tensor.
func (o *SGD) Step(ctx *nn.Ctx, params []*nn.Param) {
	for _, p := range params {
		n := p.Size()
		ctx.Prof.Time("sgd_apply", profile.CatOptimizer, profile.Update,
			kernels.EWFLOPs(n, 2), kernels.EWBytes(n, 2, 1, fp32Size), func() {
				ctx.Pool.SubScaled(p.Value.Data(), p.Grad.Data(), o.LR)
			})
		p.BumpGen() // weights changed: invalidate cached GEMM packs
	}
}
