package model

import (
	"fmt"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
	"demystbert/internal/trace"
)

// This file is the frozen-weight inference surface of the model: a
// forward-only encoder pass over a padding-free batch plus an MLM head
// applied to just the positions a serving request asks about. No loss, no
// NSP head, no pad slots, no attention mask, and no full-vocabulary
// softmax over every position — the vocabulary projection (the single
// largest GEMM in the network) runs over the handful of masked rows
// instead of all T of them. It is the only serving forward; the [B, n]
// batch and its additive mask belong to the training step, which
// FineTuner.PredictSpan also runs, with Train off.
//
// The contract serving rests on: every operator is either row-wise over
// the T stacked token rows or, in attention, confined to one sequence's
// rows, so a sequence's encoder rows and logits are bitwise the same
// alone, in any batch and at any place in it, at any worker count. One
// caveat, the one StepAccum and the sparse MLM head already carry: under
// the auto GEMM route a model narrower than d = 128 can cross
// smallGEMMFlops as the row count changes, and the naive and blocked
// routes round differently.

// EncodeEval runs the embedding and encoder stack in evaluation mode
// (dropout inactive; the fused Add&Norm epilogue path engages at full
// precision) over the ragged batch and returns the sequence output
// [T, dModel], sequence s in rows b.Offsets[s]..b.Offsets[s+1]. The
// caller's ctx.Train flag is restored on return.
//
// Every activation, the result included, comes from ctx's workspace
// (nn.Ctx) — the same one a training step on ctx draws from — which
// EncodeEval resets on entry: the result stays valid until the next
// EncodeEval, training step or any other model forward on the same ctx.
// Copy it to keep it longer. Layer i draws into the slots layer i−2 drew
// (ping-pong): a layer reads only its input, the previous layer's output,
// so layer i−2's activations are dead by then, and the workspace holds the
// embedding, two layers and the head whatever the depth. Draws after
// EncodeEval come after both layers' slots.
//
// EncodeEval writes no field of the model: concurrent calls on one model,
// each on its own ctx, share only its weights and their pack caches.
func (m *BERT) EncodeEval(ctx *nn.Ctx, b *data.Ragged) *tensor.Tensor {
	ctx.ResetWorkspace()
	prevTrain := ctx.Train
	ctx.Train = false
	defer func() { ctx.Train = prevTrain }()

	sp := ctx.StartSpan("embed")
	h := m.Embed.ForwardRagged(ctx, b.Tokens, b.Segments, b.Offsets)
	sp.End()
	// bounds[j]..bounds[j+1] are the slots layer j draws, for j = 0, 1.
	bounds := [3]int{ctx.WorkspaceMark()}
	for i, layer := range m.Layers {
		if i >= 2 {
			ctx.ReuseWorkspace(bounds[i%2], bounds[i%2+1])
		}
		// Recording gate keeps the layerName lookup (and any Sprintf
		// fallback) off the tracing-off path entirely.
		var ls trace.ActiveSpan
		if ctx.Tracer != nil && ctx.Span.Sampled() {
			ls = ctx.StartSpan(layerName(i))
		}
		h = layer.ForwardRagged(ctx, h, b.Offsets)
		ls.End()
		if i < 2 {
			bounds[i+1] = ctx.WorkspaceMark()
		}
	}
	end := bounds[min(len(m.Layers), 2)]
	ctx.ReuseWorkspace(end, end)
	return h
}

// layerNames pre-renders span names for the layer depths real configs
// use, so the sampled path does not Sprintf per layer either.
var layerNames = [...]string{
	"layer0", "layer1", "layer2", "layer3", "layer4", "layer5",
	"layer6", "layer7", "layer8", "layer9", "layer10", "layer11",
	"layer12", "layer13", "layer14", "layer15", "layer16", "layer17",
	"layer18", "layer19", "layer20", "layer21", "layer22", "layer23",
}

func layerName(i int) string {
	if i >= 0 && i < len(layerNames) {
		return layerNames[i]
	}
	return fmt.Sprintf("layer%d", i)
}

// PredictMaskedAt runs a forward-only inference pass and returns, for
// every requested (sequence, position) pair, the argmax token id of the
// MLM head. positions[s] lists the query positions of sequence s, counted
// from the sequence's own start (the serving scheduler puts each request's
// [MASK] locations here); the result is shaped exactly like positions.
func (m *BERT) PredictMaskedAt(ctx *nn.Ctx, b *data.Ragged, positions [][]int) [][]int {
	if len(positions) != b.B() {
		panic(fmt.Sprintf("model: PredictMaskedAt got positions for %d sequences, batch has %d", len(positions), b.B()))
	}
	seq := m.EncodeEval(ctx, b)

	var rows []int
	for s, ps := range positions {
		lo, hi := b.Offsets[s], b.Offsets[s+1]
		for _, p := range ps {
			if p < 0 || p >= hi-lo {
				panic(fmt.Sprintf("model: PredictMaskedAt position %d of sequence %d outside [0, %d)", p, s, hi-lo))
			}
			rows = append(rows, lo+p)
		}
	}
	out := make([][]int, len(positions))
	if len(rows) == 0 {
		return out
	}
	logits := m.mlmLogits(ctx, seq, rows)

	// Softmax is monotonic: the argmax is taken over raw logits and no
	// probability pass runs at all.
	v := m.Config.Vocab
	row := 0
	ctx.Prof.Time("infer_argmax", profile.CatOutput, profile.Forward,
		kernels.EWFLOPs(len(rows)*v, 1), kernels.EWBytes(len(rows)*v, 1, 0, ctx.ElemSize()), func() {
			for s, ps := range positions {
				if len(ps) == 0 {
					continue
				}
				out[s] = make([]int, len(ps))
				for i := range ps {
					out[s][i] = argmaxRow(logits, row)
					row++
				}
			}
		})
	return out
}

// mlmLogits applies the MLM head to just the listed rows of the encoder
// output and returns their [len(rows), vocab] logits, so the whole head
// costs O(len(rows) · vocab) instead of O(T · vocab). After EncodeEval its
// activations come from the same workspace, behind the encoder's.
func (m *BERT) mlmLogits(ctx *nn.Ctx, seq *tensor.Tensor, rows []int) *tensor.Tensor {
	prevTrain := ctx.Train
	ctx.Train = false
	defer func() { ctx.Train = prevTrain }()
	gathered := gatherRows(ctx, "infer_gather", seq, rows)

	var x *tensor.Tensor
	if ctx.MixedPrecision {
		x = m.MLMAct.Forward(ctx, m.MLMDense.Forward(ctx, gathered))
	} else {
		x = m.MLMDense.ForwardBiasGeLU(ctx, gathered, m.MLMAct)
	}
	x = m.MLMLN.Forward(ctx, x)
	return m.MLMDecoder.Forward(ctx, x)
}

// WarmupInference pre-packs every weight the inference path consults —
// the Q/K/V/O projections and both FC layers of each encoder layer, the
// MLM dense layer, and the (embedding-tied) vocabulary decoder. Serving
// calls this once at load, so steady-state traffic never takes a
// pack-cache miss: frozen weights never bump their generation, which is
// exactly the 100% reuse regime the pack cache was designed around.
// The packs are built on pool. Returns the number of packs built.
func (m *BERT) WarmupInference(pool *kernels.Pool) int {
	warmed := 0
	warm := func(l *nn.Linear) {
		l.WarmPack(pool)
		warmed++
	}
	for _, layer := range m.Layers {
		warm(layer.Attn.Wq)
		warm(layer.Attn.Wk)
		warm(layer.Attn.Wv)
		warm(layer.Attn.Wo)
		warm(layer.FF.FC1)
		warm(layer.FF.FC2)
	}
	warm(m.MLMDense)
	warm(m.MLMDecoder)
	return warmed
}
