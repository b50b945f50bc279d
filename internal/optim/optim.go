// Package optim implements the weight-update phase of BERT training: the
// LAMB optimizer the paper identifies as the second-highest runtime
// contributor (Takeaway 1), Adam in both fused and unfused forms (the
// kernel-fusion study of Fig. 12a), and plain SGD as a baseline.
//
// Optimizer kernels always account bytes at FP32 element size: mixed
// precision keeps FP32 master weights and optimizer state, which is why
// the paper finds LAMB's runtime unchanged — and its relative share
// increased — under MP training (Takeaway 2).
package optim

import (
	"demystbert/internal/nn"
	"demystbert/internal/tensor"
)

// Optimizer applies one update step to a parameter set using their
// accumulated gradients. Implementations record their kernels through
// ctx.Prof so update-phase runtime is attributable.
type Optimizer interface {
	// Step updates all parameters in place and clears nothing: callers
	// zero gradients themselves (gradient accumulation is legal).
	Step(ctx *nn.Ctx, params []*nn.Param)
}

// Applier is one prepared iteration's update: the iteration-wide scalars
// (bias correction, LAMB's global clip scale) are fixed, and Apply may be
// called once with every parameter or once per shard, in any split, with
// bitwise the same result.
type Applier interface {
	Apply(ctx *nn.Ctx, params []*nn.Param)
}

// Shardable is an optimizer whose step splits into Prepare and Apply and
// whose per-parameter state can be taken out of memory in between — what
// optimizer-state sharding (internal/memscale) needs. LAMB and Adam
// implement it. Prepare advances the step count exactly once per
// iteration; all must be every trainable parameter in canonical order,
// because LAMB's clip norm is global.
type Shardable interface {
	Prepare(ctx *nn.Ctx, all []*nn.Param) Applier
	// State returns p's momentum and velocity, allocating them zeroed on
	// first use; ReleaseState drops them so that the next State call
	// allocates fresh tensors for the caller to restore into.
	State(p *nn.Param) (m, v *tensor.Tensor)
	ReleaseState(p *nn.Param)
	StepCount() int
}

// fp32Size is the optimizer element size: updates run in full precision
// even under mixed-precision training.
const fp32Size = 4
