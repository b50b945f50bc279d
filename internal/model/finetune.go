package model

import (
	"fmt"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// FineTuner adapts a pre-trained BERT to an extractive question-answering
// task in the SQuAD style the paper discusses (Section 7): the
// pre-training heads are discarded and a single span classifier — one
// d_model → 2 projection producing start/end logits per token — is added.
// Everything else (embedding, encoder stack, training technique) is
// reused unchanged, which is why the paper's takeaways carry over to
// fine-tuning: the step runs the base's encoder trunk, so the base's
// CheckpointEvery and CkptSpill apply to it as they do to pre-training.
type FineTuner struct {
	Base *BERT
	Span *nn.Linear

	// Saved iteration state.
	batch      *data.QABatch
	startProbs *tensor.Tensor
	endProbs   *tensor.Tensor

	params   []*nn.Param   // Params, built on first use
	gradBufs [][]float32   // ZeroGrads' reused list of gradient buffers
	pool     *kernels.Pool // the last Forward's ctx pool, which ZeroGrads clears on
}

// NewFineTuner wraps a (typically pre-trained) BERT with a fresh span
// head.
func NewFineTuner(base *BERT, seed uint64) *FineTuner {
	rng := tensor.NewRNG(seed)
	return &FineTuner{
		Base: base,
		Span: nn.NewLinear("squad.span", base.Config.DModel, 2, profile.CatOutput, rng),
	}
}

// Forward runs the encoder and span head over a QA batch, returning the
// mean of the start- and end-position cross-entropy losses. It starts a new
// forward on ctx's workspace, as BERT.Forward does.
func (f *FineTuner) Forward(ctx *nn.Ctx, b *data.QABatch) float64 {
	ctx.ResetWorkspace()
	f.batch, f.pool = b, ctx.Pool
	h := f.Base.encode(ctx, b.Tokens, b.Segments, b.B, b.N, b.Mask)
	logits := f.Span.Forward(ctx, h) // [B·n, 2]

	// Regroup into per-sequence position logits: start[B, n], end[B, n].
	start := ctx.NewActivation(b.B, b.N)
	end := ctx.NewActivation(b.B, b.N)
	es := ctx.ElemSize()
	ctx.Prof.Time("span_split", profile.CatOutput, profile.Forward,
		0, kernels.EWBytes(2*b.B*b.N, 1, 1, es), func() {
			ld := logits.Data()
			for s := 0; s < b.B; s++ {
				for t := 0; t < b.N; t++ {
					start.Set(ld[(s*b.N+t)*2+0], s, t)
					end.Set(ld[(s*b.N+t)*2+1], s, t)
				}
			}
		})

	f.startProbs = ctx.NewActivation(b.B, b.N)
	f.endProbs = ctx.NewActivation(b.B, b.N)
	var loss float64
	ctx.Prof.Time("span_xent_fwd", profile.CatOutput, profile.Forward,
		kernels.EWFLOPs(2*b.B*b.N, 4), kernels.EWBytes(2*b.B*b.N, 1, 1, es), func() {
			loss = 0.5*ctx.Pool.CrossEntropyForward(f.startProbs.Data(), start.Data(), b.StartPos, b.B, b.N) +
				0.5*ctx.Pool.CrossEntropyForward(f.endProbs.Data(), end.Data(), b.EndPos, b.B, b.N)
		})
	return loss
}

// Backward backpropagates the span loss through the head and encoder.
func (f *FineTuner) Backward(ctx *nn.Ctx) {
	if f.batch == nil {
		panic("model: FineTuner.Backward called before Forward")
	}
	b := f.batch
	es := ctx.ElemSize()

	dStart := ctx.NewActivation(b.B, b.N)
	dEnd := ctx.NewActivation(b.B, b.N)
	dLogits := ctx.NewActivation(b.B*b.N, 2)
	ctx.Prof.Time("span_xent_bwd", profile.CatOutput, profile.Backward,
		kernels.EWFLOPs(2*b.B*b.N, 2), kernels.EWBytes(2*b.B*b.N, 1, 1, es), func() {
			ctx.Pool.CrossEntropyBackward(dStart.Data(), f.startProbs.Data(), b.StartPos, b.B, b.N)
			ctx.Pool.CrossEntropyBackward(dEnd.Data(), f.endProbs.Data(), b.EndPos, b.B, b.N)
			dd := dLogits.Data()
			for s := 0; s < b.B; s++ {
				for t := 0; t < b.N; t++ {
					dd[(s*b.N+t)*2+0] = 0.5 * dStart.At(s, t)
					dd[(s*b.N+t)*2+1] = 0.5 * dEnd.At(s, t)
				}
			}
		})

	f.Base.encodeBackward(ctx, f.Span.Backward(ctx, dLogits), b.B, b.N, b.Mask, true, nil)
	f.batch, f.startProbs, f.endProbs = nil, nil, nil
}

// Step runs one fine-tuning iteration and returns the loss.
func (f *FineTuner) Step(ctx *nn.Ctx, b *data.QABatch) float64 {
	ctx.Prof.BeginIteration()
	sp := ctx.StartSpan("fwd")
	loss := f.Forward(ctx, b)
	sp.End()
	sp = ctx.StartSpan("bwd")
	f.Backward(ctx)
	sp.End()
	return loss
}

// Params returns the encoder, embedding, and span-head parameters (the
// unused pre-training heads are excluded — they receive no gradient). The
// list is built on the first call and shared by every later one: the
// caller must not modify it.
func (f *FineTuner) Params() []*nn.Param {
	if f.params == nil {
		ps := f.Base.Embed.Params()
		for _, l := range f.Base.Layers {
			ps = append(ps, l.Params()...)
		}
		f.params = append(ps, f.Span.Params()...)
	}
	return f.params[:len(f.params):len(f.params)]
}

// ZeroGrads clears all fine-tuning gradients in one region of the pool
// the last Forward's ctx carried (the process pool before any Forward).
func (f *FineTuner) ZeroGrads() {
	f.gradBufs = zeroGrads(f.pool, f.gradBufs, f.Params())
}

// PredictSpan runs inference over a QA batch and returns the
// highest-scoring start and end position per sequence.
func (f *FineTuner) PredictSpan(ctx *nn.Ctx, b *data.QABatch) (starts, ends []int) {
	prevTrain := ctx.Train
	ctx.Train = false
	defer func() { ctx.Train = prevTrain }()
	f.Forward(ctx, b)

	starts = make([]int, b.B)
	ends = make([]int, b.B)
	for s := 0; s < b.B; s++ {
		starts[s] = argmaxRow(f.startProbs, s)
		ends[s] = argmaxRow(f.endProbs, s)
	}
	f.batch = nil
	return starts, ends
}

func argmaxRow(t *tensor.Tensor, row int) int {
	r := t.Row(row)
	best := 0
	for i, v := range r {
		if v > r[best] {
			best = i
		}
	}
	return best
}

// String describes the fine-tuner.
func (f *FineTuner) String() string {
	return fmt.Sprintf("FineTuner(span head over %d-layer encoder)", f.Base.Config.NumLayers)
}
