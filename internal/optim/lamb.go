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
//     (Takeaway 7);
//   - Stage 2, per parameter tensor, computes the layer-wise trust ratio
//     from the weight and update norms and applies the update.
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

	step    int
	m, v    map[*nn.Param]*tensor.Tensor
	updates map[*nn.Param]*tensor.Tensor
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
		updates:     make(map[*nn.Param]*tensor.Tensor),
	}
}

// StepCount returns the number of updates applied so far.
func (o *LAMB) StepCount() int { return o.step }

// State returns the momentum and velocity tensors for p, allocating them
// on first use.
func (o *LAMB) State(p *nn.Param) (m, v *tensor.Tensor) {
	if o.m[p] == nil {
		o.m[p] = tensor.New(p.Value.Shape()...)
		o.v[p] = tensor.New(p.Value.Shape()...)
	}
	return o.m[p], o.v[p]
}

// ReleaseState drops p's optimizer state (m, v, and the update scratch)
// from the resident maps. The virtual-shard memory-scaling path spills
// state to disk between shards and releases it so only one shard's state
// stays resident; the next State call re-allocates fresh zeroed tensors
// for the caller to restore into.
func (o *LAMB) ReleaseState(p *nn.Param) {
	delete(o.m, p)
	delete(o.v, p)
	delete(o.updates, p)
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
func (o *LAMB) Prepare(ctx *nn.Ctx, params []*nn.Param) Applier {
	o.step++

	// Global gradient norm: LAMB normalizes all layers' gradients before
	// any parameter can be updated.
	var gradScale float32 = 1
	ctx.Prof.Time("lamb_global_gradnorm", profile.CatLAMBStage1, profile.Update,
		totalFLOPs(params, 2), totalBytes(params, 1, 0), func() {
			var ss float64
			for _, p := range params {
				ss += kernels.SumSquares(p.Grad.Data())
			}
			norm := math.Sqrt(ss)
			if o.ClipNorm > 0 && norm > o.ClipNorm {
				gradScale = float32(o.ClipNorm / norm)
			}
		})

	return &LAMBStep{
		o:         o,
		gradScale: gradScale,
		bc1:       1 - float32(math.Pow(float64(o.Beta1), float64(o.step))),
		bc2:       1 - float32(math.Pow(float64(o.Beta2), float64(o.step))),
	}
}

// Step applies one LAMB update to every parameter.
func (o *LAMB) Step(ctx *nn.Ctx, params []*nn.Param) {
	o.Prepare(ctx, params).Apply(ctx, params)
}

// Apply runs both LAMB stages over params, which may be any subset of the
// parameters Prepare saw. Per-tensor arithmetic is independent across
// tensors, so splitting one iteration's Apply across shards is bitwise
// identical to a single whole-model Apply.
func (s *LAMBStep) Apply(ctx *nn.Ctx, params []*nn.Param) {
	o, gradScale, bc1, bc2 := s.o, s.gradScale, s.bc1, s.bc2

	// Stage 1 per tensor: update m and v, produce the adaptive direction.
	// Reads g, m, v, w (4× model size); writes m, v, update.
	for _, p := range params {
		m, v := o.State(p)
		if o.updates[p] == nil {
			o.updates[p] = tensor.New(p.Value.Shape()...)
		}
		upd := o.updates[p]
		n := p.Size()
		ctx.Prof.Time("lamb_stage1", profile.CatLAMBStage1, profile.Update,
			kernels.EWFLOPs(n, 12), kernels.EWBytes(n, 4, 3, fp32Size), func() {
				md, vd, gd, wd, ud := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data(), upd.Data()
				kernels.ParallelRange(len(gd), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						g := gd[i] * gradScale
						md[i] = o.Beta1*md[i] + (1-o.Beta1)*g
						vd[i] = o.Beta2*vd[i] + (1-o.Beta2)*g*g
						mh := md[i] / bc1
						vh := vd[i] / bc2
						ud[i] = mh/(sqrt32(vh)+o.Eps) + o.WeightDecay*wd[i]
					}
				})
			})
	}

	// Stage 2 per tensor: trust ratio from ‖w‖ and ‖update‖, then apply.
	// Reads update, w; writes w.
	for _, p := range params {
		upd := o.updates[p]
		n := p.Size()
		ctx.Prof.Time("lamb_stage2", profile.CatLAMBStage2, profile.Update,
			kernels.EWFLOPs(n, 6), kernels.EWBytes(n, 2, 1, fp32Size), func() {
				wNorm := kernels.L2Norm(p.Value.Data())
				uNorm := kernels.L2Norm(upd.Data())
				trust := float32(1)
				if wNorm > 0 && uNorm > 0 {
					trust = float32(wNorm / uNorm)
				}
				step := o.LR * trust
				wd, ud := p.Value.Data(), upd.Data()
				kernels.ParallelRange(len(wd), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						wd[i] -= step * ud[i]
					}
				})
			})
		p.BumpGen() // weights changed: invalidate cached GEMM packs
	}
}

// BytesPerParam is the algorithmic traffic of one LAMB update per
// parameter element: stage 1 reads 4 and writes 3 FP32 values, stage 2
// reads 2 and writes 1 (norm reads counted once with the apply read).
const BytesPerParam = (4 + 3 + 2 + 1) * fp32Size

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

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}
