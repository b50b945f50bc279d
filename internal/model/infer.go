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
// forward-only encoder pass plus an MLM head applied to just the
// positions a serving request asks about. It is the machinery behind
// PredictMasked restructured for serving: no loss, no NSP head, no
// full-vocabulary softmax over every position — the vocabulary
// projection (the single largest GEMM in the network) runs over the
// handful of masked rows instead of all B·n of them.

// EncodeEval runs the embedding and encoder stack in evaluation mode
// (dropout inactive; the fused Add&Norm epilogue path engages at full
// precision) and returns the sequence output [B·n, dModel]. The
// caller's ctx.Train flag is restored on return.
func (m *BERT) EncodeEval(ctx *nn.Ctx, b *data.Batch) *tensor.Tensor {
	prevTrain := ctx.Train
	ctx.Train = false
	defer func() { ctx.Train = prevTrain }()

	sp := ctx.StartSpan("embed")
	h := m.Embed.Forward(ctx, b.Tokens, b.Segments, b.B, b.N)
	sp.End()
	for i, layer := range m.Layers {
		// Recording gate keeps the layerName lookup (and any Sprintf
		// fallback) off the tracing-off path entirely.
		var ls trace.ActiveSpan
		if ctx.Tracer != nil && ctx.Span.Sampled() {
			ls = ctx.StartSpan(layerName(i))
		}
		h = layer.Forward(ctx, h, b.B, b.N, b.Mask)
		ls.End()
	}
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
// MLM head. positions[s] lists the query positions of sequence s (the
// serving scheduler puts each request's [MASK] locations here); the
// result is shaped exactly like positions. Softmax is monotonic, so the
// argmax is taken over raw logits and no probability pass runs at all.
func (m *BERT) PredictMaskedAt(ctx *nn.Ctx, b *data.Batch, positions [][]int) [][]int {
	if len(positions) != b.B {
		panic(fmt.Sprintf("model: PredictMaskedAt got positions for %d sequences, batch has %d", len(positions), b.B))
	}
	seq := m.EncodeEval(ctx, b)

	var rows []int
	for s, ps := range positions {
		for _, p := range ps {
			if p < 0 || p >= b.N {
				panic(fmt.Sprintf("model: PredictMaskedAt position %d of sequence %d outside [0, %d)", p, s, b.N))
			}
			rows = append(rows, s*b.N+p)
		}
	}
	out := make([][]int, b.B)
	total := len(rows)
	if total == 0 {
		return out
	}

	// Gather just the queried rows; the whole MLM head then costs
	// O(total · vocab) instead of O(B·n · vocab).
	prevTrain := ctx.Train
	ctx.Train = false
	defer func() { ctx.Train = prevTrain }()
	gathered := gatherRows(ctx, "infer_gather", seq, rows)
	es := ctx.ElemSize()

	var x *tensor.Tensor
	if ctx.MixedPrecision {
		x = m.MLMAct.Forward(ctx, m.MLMDense.Forward(ctx, gathered))
	} else {
		x = m.MLMDense.ForwardBiasGeLU(ctx, gathered, m.MLMAct)
	}
	x = m.MLMLN.Forward(ctx, x)
	logits := m.MLMDecoder.Forward(ctx, x)

	v := m.Config.Vocab
	row := 0
	ctx.Prof.Time("infer_argmax", profile.CatOutput, profile.Forward,
		kernels.EWFLOPs(total*v, 1), kernels.EWBytes(total*v, 1, 0, es), func() {
			ld := logits.Data()
			for s, ps := range positions {
				if len(ps) == 0 {
					continue
				}
				out[s] = make([]int, len(ps))
				for i := range ps {
					r := ld[row*v : (row+1)*v]
					best := 0
					for j, lv := range r {
						if lv > r[best] {
							best = j
						}
					}
					out[s][i] = best
					row++
				}
			}
		})
	return out
}

// WarmupInference pre-packs every weight the inference path consults —
// the Q/K/V/O projections and both FC layers of each encoder layer, the
// MLM dense layer, and the (embedding-tied) vocabulary decoder — for
// the engine ctx selects (int8 packs with ctx.Int8, f32 otherwise).
// Serving calls this once at load with the context it will predict
// under, so steady-state traffic never takes a pack-cache miss: frozen
// weights never bump their generation, which is exactly the 100% reuse
// regime the pack cache was designed around. Returns the number of packs
// built.
func (m *BERT) WarmupInference(ctx *nn.Ctx) int {
	warmed := 0
	warm := func(l *nn.Linear) {
		l.WarmPack(ctx)
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
