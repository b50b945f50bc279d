// Package nn implements the neural-network layer modules of the
// real-execution BERT engine: Linear, Multi-Head Attention, the
// feed-forward (FC) block, LayerNorm, Dropout, Residual, and Embedding,
// each with a hand-written backward pass. Every kernel invocation is
// recorded through internal/profile so real runs produce the same
// category/phase breakdowns the paper reports.
//
// All inter-module activations are rank-2 tensors of shape
// [tokens, features] with tokens = B·n: as the paper stresses
// (Section 3.2.2), BERT combines all token vectors of a mini-batch into a
// single matrix, so every layer manifests as a GEMM even at B = 1.
package nn

import (
	"fmt"
	"sync/atomic"

	"demystbert/internal/kernels"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
	"demystbert/internal/trace"
)

// Param is a trainable parameter tensor with its gradient accumulator.
//
// A Param also carries a mutation generation and a cache of micro-panel
// packings of Value (one per GEMM transpose orientation), so layers that
// use the weight as a GEMM B operand more than once between two optimizer
// steps can call kernels.GEMMPacked without re-packing on every
// forward/backward. The contract: any code that mutates Value in place
// after the first forward pass must call BumpGen — the optimizers do (once
// per step, so a pack is built at most once per iteration, and only in an
// iteration that uses it twice), and construction-time writes need nothing
// because no pack exists yet. Params must not be copied by
// value once in use (the generation counter and cache are atomic state;
// go vet's copylocks check enforces this).
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	gen   atomic.Uint64
	packs kernels.PackCache
}

// NewParam allocates a parameter and a zeroed gradient of the given shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// Size returns the parameter's element count.
func (p *Param) Size() int { return p.Value.Size() }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Gen returns the parameter's mutation generation.
func (p *Param) Gen() uint64 { return p.gen.Load() }

// BumpGen records a mutation of Value, invalidating any cached packs.
// Safe for concurrent use (loopback ranks in one process step their
// optimizers concurrently).
func (p *Param) BumpGen() { p.gen.Add(1) }

// Packed returns Value as the B operand of a kernels.GEMMPacked call on
// route and pool (op(B) is k×n; Value is stored n×k when transB is true, k×n
// otherwise): the cached micro-panel packing from the second call on with
// this orientation since the generation, shape, or kernel backend last
// changed, and an un-built operand that packs per call on the first
// (kernels.PackCache); the forced fused route builds at once. Concurrent readers are safe; the tied
// MLM-decoder weight shares the embedding Param and therefore this cache.
func (p *Param) Packed(route kernels.GEMMPath, pool *kernels.Pool, transB bool, n, k int) *kernels.PackedB {
	return p.packs.Get(route, pool, transB, n, k, p.Value.Data(), p.gen.Load())
}

// Ctx carries per-iteration execution state through forward and backward
// passes: the profiler, the dropout RNG, the training flag, the GEMM route,
// and whether mixed-precision byte accounting is active.
//
// A Ctx also owns the activation memory of every pass run on it, a
// grow-only workspace (workspace.go) that each model forward entry point
// resets. The layers draw their outputs and gradients from it
// (NewActivation), in training and evaluation alike, so a steady stream of
// steps or batches reuses the same memory instead of allocating and
// zeroing every activation anew; a tensor a pass returns is therefore valid
// only until the next forward on the same Ctx. A Ctx serves one goroutine
// at a time.
type Ctx struct {
	Prof  *profile.Profiler
	RNG   *tensor.RNG
	Train bool

	// MixedPrecision switches profiler byte accounting to 2-byte elements
	// for forward/backward kernels AND quantizes layer outputs through
	// IEEE binary16 storage, so reduced precision is numerically real.
	// Arithmetic remains float32 (accumulation in higher precision), and
	// master weights and optimizer state stay FP32, matching the paper's
	// MP training (Section 3.2.1).
	MixedPrecision bool

	// LossScale multiplies the loss gradient at the top of backprop
	// (mixed-precision loss scaling; 0 or 1 means unscaled). Gradients
	// must be unscaled before the optimizer step — see
	// optim.DynamicLossScaler.
	LossScale float32

	// Recompute marks a checkpointed segment's forward re-execution
	// during backprop (Section 4). Dropout replays its saved mask instead
	// of sampling a fresh one, so recomputed activations are bit-identical
	// to the originals.
	Recompute bool

	// Route is the GEMM route of every layer's products. The zero value,
	// kernels.GEMMPathAuto, is production's per-call routing; the forced
	// routes are for differential tests (internal/audit).
	Route kernels.GEMMPath

	// Pool is the worker pool every kernel of a pass runs on. The zero
	// value, nil, is the process pool, which production runs everywhere;
	// tests pass pools of the widths they check.
	Pool *kernels.Pool

	// Tracer and Span carry request/step-scoped trace identity through
	// the model's forward/backward plumbing, so phase spans (embed,
	// per-layer, MLM head) land in the same trace as the serving request
	// or training step that dispatched them. Both are optional: a nil
	// Tracer or unsampled Span makes StartSpan free.
	Tracer *trace.Tracer
	Span   trace.SpanContext

	ws *workspace // nil until the first ResetWorkspace
}

// StartSpan opens a model-phase span under the context's ambient trace.
// The zero handle comes back (allocation- and syscall-free) when the
// context carries no sampled trace.
func (c *Ctx) StartSpan(name string) trace.ActiveSpan {
	return c.Tracer.StartSpan(c.Span, name)
}

// NewCtx returns a training context with a fresh profiler and the given
// dropout seed.
func NewCtx(seed uint64) *Ctx {
	return &Ctx{Prof: profile.New(), RNG: tensor.NewRNG(seed), Train: true}
}

// ElemSize returns the byte accounting element size for activation
// kernels: 2 in mixed precision, else 4.
func (c *Ctx) ElemSize() int {
	if c.MixedPrecision {
		return 2
	}
	return 4
}

// EffectiveLossScale returns the loss-gradient multiplier (1 when unset).
func (c *Ctx) EffectiveLossScale() float32 {
	if c.LossScale == 0 {
		return 1
	}
	return c.LossScale
}

// StoreHalf quantizes an activation through binary16 storage when mixed
// precision is active — the "store to FP16, load back" boundary every
// layer output crosses in real MP training.
func (c *Ctx) StoreHalf(t *tensor.Tensor) {
	if c.MixedPrecision {
		tensor.RoundTripF16(t)
	}
}

// Module is the interface of layers composable in a simple x→y chain.
// Backward must be called exactly once per Forward, in reverse order, and
// accumulates into parameter gradients.
type Module interface {
	Forward(ctx *Ctx, x *tensor.Tensor) *tensor.Tensor
	Backward(ctx *Ctx, dY *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// collectParams concatenates the parameters of several modules.
func collectParams(ms ...Module) []*Param {
	var ps []*Param
	for _, m := range ms {
		ps = append(ps, m.Params()...)
	}
	return ps
}

func mustRank2(name string, x *tensor.Tensor) (rows, cols int) {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("nn: %s expects a rank-2 [tokens, features] tensor, got %v", name, x.Shape()))
	}
	return x.Dim(0), x.Dim(1)
}
