package optim

import (
	"math"

	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// LAMB implements the layer-wise adaptive large-batch optimizer (You et
// al., the paper's [95]) exactly as the paper characterizes it
// (Sections 2.4, 3.2.3):
//
//   - a global L2-norm reduction over every gradient precedes any update,
//     serializing the optimizer against the entire backprop;
//   - Stage 1, per parameter tensor, folds the gradient into momentum (m)
//     and velocity (v) state and produces the adaptive update direction —
//     reading gradient, m, v, and weights: data worth 4× the model size
//     (Takeaway 7) — and accumulates ‖w‖² and ‖update‖² on the way;
//   - Stage 2, per parameter tensor, forms the layer-wise trust ratio
//     from those two norms and applies the update.
//
// All state and arithmetic are FP32 regardless of training precision.
type LAMB struct {
	LR          float32
	Beta1       float32
	Beta2       float32
	Eps         float32
	WeightDecay float32
	// ClipNorm, when positive, rescales gradients so their global L2 norm
	// does not exceed it (BERT's recipe clips at 1.0).
	ClipNorm float64

	step int
	m, v map[*nn.Param]*tensor.Tensor
	// update is stage 1's output for the tensor being updated: one buffer
	// the size of the largest parameter, since stage 2 consumes it before
	// the next tensor's stage 1 runs. Apply is never called concurrently on
	// one LAMB (every loopback rank owns its optimizer).
	update []float32
}

// NewLAMB returns a LAMB optimizer with BERT pre-training defaults.
func NewLAMB(lr float32) *LAMB {
	return &LAMB{
		LR:          lr,
		Beta1:       0.9,
		Beta2:       0.999,
		Eps:         1e-6,
		WeightDecay: 0.01,
		ClipNorm:    1.0,
		m:           make(map[*nn.Param]*tensor.Tensor),
		v:           make(map[*nn.Param]*tensor.Tensor),
	}
}

// State returns the momentum and velocity tensors for p, allocating them
// on first use.
func (o *LAMB) State(p *nn.Param) (m, v *tensor.Tensor) {
	if o.m[p] == nil {
		o.m[p] = tensor.New(p.Value.Shape()...)
		o.v[p] = tensor.New(p.Value.Shape()...)
	}
	return o.m[p], o.v[p]
}

// HasState reports whether p's momentum and velocity are resident.
func (o *LAMB) HasState(p *nn.Param) bool { return o.m[p] != nil }

// StateBytes is the resident optimizer state: m and v of every parameter
// Apply has touched, FP32.
func (o *LAMB) StateBytes() int64 {
	var n int64
	for _, m := range o.m {
		n += int64(m.Size())
	}
	return 2 * n * fp32Size
}

// ReleaseState drops p's optimizer state (m and v) from the resident
// maps. The virtual-shard memory-scaling path spills
// state to disk between shards and releases it so only one shard's state
// stays resident; the next State call re-allocates fresh zeroed tensors
// for the caller to restore into.
func (o *LAMB) ReleaseState(p *nn.Param) {
	delete(o.m, p)
	delete(o.v, p)
}

// LAMBStep is one iteration's update context: the bias-correction terms
// and the global gradient clip scale, fixed once per Prepare. Apply
// may then be called once with every parameter (the plain path) or once
// per shard (the ZeRO-1 sharded and virtual-shard paths) — the step count
// advances exactly once either way, so bias correction cannot desync no
// matter how many shards the update is split across.
type LAMBStep struct {
	o         *LAMB
	gradScale float32
	bc1, bc2  float32
}

// Prepare advances the step count once and computes the global
// gradient-norm clip scale. params must be ALL trainable parameters in
// canonical order — LAMB's clip norm is global, so every rank and every
// shard must derive the identical scale even when Apply later touches
// only a subset.
func (o *LAMB) Prepare(ctx *nn.Ctx, params []*nn.Param) LAMBStep {
	// Global gradient norm: LAMB normalizes all layers' gradients before
	// any parameter can be updated.
	var ss float64
	ctx.Prof.Time("lamb_global_gradnorm", profile.CatLAMBStage1, profile.Update,
		totalFLOPs(params, 2), totalBytes(params, 1, 0), func() {
			for _, p := range params {
				ss += ctx.Pool.SumSquares(p.Grad.Data())
			}
		})
	return o.PrepareSumSquares(ss)
}

// PrepareSumSquares is Prepare for a caller that holds ss, the squared
// global gradient norm, already: a sharded trainer sums its ranks'
// per-tensor GradSumSquares in canonical order, the order Prepare folds
// them in, so every rank fixes the clip scale Prepare would.
func (o *LAMB) PrepareSumSquares(ss float64) LAMBStep {
	o.step++
	var gradScale float32 = 1
	if norm := math.Sqrt(ss); o.ClipNorm > 0 && norm > o.ClipNorm {
		gradScale = float32(o.ClipNorm / norm)
	}
	return LAMBStep{
		o:         o,
		gradScale: gradScale,
		bc1:       1 - float32(math.Pow(float64(o.Beta1), float64(o.step))),
		bc2:       1 - float32(math.Pow(float64(o.Beta2), float64(o.step))),
	}
}

// GradSumSquares stores ‖g‖² of params[i]'s gradient in dst[i], float64:
// the per-tensor terms of LAMB's global norm, timed as its
// lamb_global_gradnorm kernel.
func GradSumSquares(ctx *nn.Ctx, params []*nn.Param, dst []float64) {
	ctx.Prof.Time("lamb_global_gradnorm", profile.CatLAMBStage1, profile.Update,
		totalFLOPs(params, 2), totalBytes(params, 1, 0), func() {
			for i, p := range params {
				dst[i] = ctx.Pool.SumSquares(p.Grad.Data())
			}
		})
}

// Step applies one LAMB update to every parameter.
func (o *LAMB) Step(ctx *nn.Ctx, params []*nn.Param) {
	o.Prepare(ctx, params).Apply(ctx, params)
}

// Apply runs both LAMB stages over params, which may be any subset of the
// parameters Prepare saw, one tensor at a time: stage 2 follows stage 1
// while the tensor's update and weights are still in cache. Per-tensor
// arithmetic is independent across tensors, so splitting one iteration's
// Apply across shards is bitwise identical to a single whole-model Apply.
func (s LAMBStep) Apply(ctx *nn.Ctx, params []*nn.Param) {
	o := s.o
	for _, p := range params {
		m, v := o.State(p)
		n := p.Size()
		if cap(o.update) < n {
			o.update = make([]float32, n)
		}
		wd, ud := p.Value.Data(), o.update[:n]

		// Stage 1: update m and v, produce the adaptive direction and the
		// two norms of the trust ratio. Reads g, m, v, w (4× model size);
		// writes m, v, update.
		var wSq, uSq float64
		ctx.Prof.Time("lamb_stage1", profile.CatLAMBStage1, profile.Update,
			kernels.EWFLOPs(n, 12), kernels.EWBytes(n, 4, 3, fp32Size), func() {
				wSq, uSq = ctx.Pool.LAMBStage1(p.Grad.Data(), m.Data(), v.Data(), wd, ud,
					s.gradScale, o.Beta1, o.Beta2, s.bc1, s.bc2, o.Eps, o.WeightDecay)
			})

		// Stage 2: trust ratio ‖w‖/‖update‖, then apply. Reads update, w;
		// writes w.
		ctx.Prof.Time("lamb_stage2", profile.CatLAMBStage2, profile.Update,
			kernels.EWFLOPs(n, 6), kernels.EWBytes(n, 2, 1, fp32Size), func() {
				wNorm, uNorm := math.Sqrt(wSq), math.Sqrt(uSq)
				trust := float32(1)
				if wNorm > 0 && uNorm > 0 {
					trust = float32(wNorm / uNorm)
				}
				ctx.Pool.SubScaled(wd, ud, o.LR*trust)
			})
		p.BumpGen() // weights changed: invalidate cached GEMM packs
	}
}

func totalFLOPs(params []*nn.Param, perElem int) int64 {
	var n int64
	for _, p := range params {
		n += int64(p.Size())
	}
	return n * int64(perElem)
}

func totalBytes(params []*nn.Param, reads, writes int) int64 {
	var n int64
	for _, p := range params {
		n += int64(p.Size())
	}
	return n * int64(reads+writes) * fp32Size
}
