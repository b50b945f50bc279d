package nn

import (
	"fmt"

	"demystbert/internal/kernels"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// Embedding is BERT's input layer: the sum of token, learned-position, and
// segment (sentence A/B) embeddings, followed by LayerNorm and dropout.
// The paper finds its runtime contribution negligible (Obs. 1); it is
// nevertheless implemented in full because it owns ~30% of BERT-Large's
// parameters and therefore matters to LAMB's update volume.
//
// Tok doubles as the tied MLM decoder weight (model.BERT aliases
// MLMDecoder.W to it), so its Param-level GEMM pack cache serves the
// vocab-projection Linear too: the embedding's own gather/scatter path
// never packs, and the decoder's packs invalidate on the same
// generation counter the optimizers bump (see DESIGN.md §7).
type Embedding struct {
	Tok, Pos, Seg *Param
	LN            *LayerNorm
	Drop          *Dropout

	vocab, maxPos, dModel int

	// tokScatter accumulates the backward scatter into the token table.
	// Tok.Grad has a second contributor — the tied MLM decoder's weight
	// gradient GEMM — and the two fold in a fixed order only if they use
	// separate accumulators merged once per iteration (FlushTokScatter).
	// That separation is what makes gradient accumulation bitwise-equal to
	// a full-batch step: each accumulator is a token-order continuation
	// fold across micro-batches, and the merge happens exactly once.
	tokScatter *tensor.Tensor
	// tokRows lists, once each, the token rows scattered into since the
	// last flush or drop (tokSeen marks them), so both touch only those
	// rows: ~seq-len rows of a vocab-row table.
	tokRows []int
	tokSeen []bool

	// Saved for backward.
	tokens   []int
	segments []int
	seqLen   int
}

// NewEmbedding builds the embedding layer for the given vocabulary size,
// maximum sequence length, and model width.
func NewEmbedding(vocab, maxPos, dModel int, dropP float32, rng *tensor.RNG) *Embedding {
	e := &Embedding{
		Tok:    NewParam("embed.token", vocab, dModel),
		Pos:    NewParam("embed.position", maxPos, dModel),
		Seg:    NewParam("embed.segment", 2, dModel),
		LN:     NewLayerNorm("embed.ln", dModel),
		Drop:   NewDropout(dropP, profile.CatEmbedding),
		vocab:  vocab,
		maxPos: maxPos,
		dModel: dModel,
	}
	e.Tok.Value.FillNormal(rng, 0, 0.02)
	e.Pos.Value.FillNormal(rng, 0, 0.02)
	e.Seg.Value.FillNormal(rng, 0, 0.02)
	return e
}

// Forward embeds token ids (length B·n) with their positions and segment
// ids, returning [B·n, dModel]. Position i within each sequence of length
// n gets position embedding i.
func (e *Embedding) Forward(ctx *Ctx, tokens, segments []int, b, n int) *tensor.Tensor {
	if len(tokens) != b*n || len(segments) != b*n {
		panic(fmt.Sprintf("nn: Embedding got %d tokens, %d segments, want %d", len(tokens), len(segments), b*n))
	}
	if n > e.maxPos {
		panic(fmt.Sprintf("nn: sequence length %d exceeds max position %d", n, e.maxPos))
	}
	e.tokens = tokens
	e.segments = segments
	e.seqLen = n

	out := ctx.NewActivation(b*n, e.dModel)
	total := b * n * e.dModel
	es := ctx.ElemSize()
	ctx.Prof.Time("embedding_gather", profile.CatEmbedding, profile.Forward,
		kernels.EWFLOPs(total, 2), kernels.EWBytes(total, 3, 1, es), func() {
			for t := 0; t < b*n; t++ {
				e.sumRow(out.Row(t), tokens[t], segments[t], t%n)
			}
		})

	h := e.LN.Forward(ctx, out)
	return e.Drop.Forward(ctx, h)
}

// sumRow writes the token + position + segment embedding sum into row.
func (e *Embedding) sumRow(row []float32, id, seg, pos int) {
	if id < 0 || id >= e.vocab {
		panic(fmt.Sprintf("nn: token id %d out of vocab %d", id, e.vocab))
	}
	if seg != 0 && seg != 1 {
		panic(fmt.Sprintf("nn: segment id %d must be 0 or 1", seg))
	}
	tok := e.Tok.Value.Row(id)
	pv := e.Pos.Value.Row(pos)
	sv := e.Seg.Value.Row(seg)
	for j := range row {
		row[j] = tok[j] + pv[j] + sv[j]
	}
}

// ForwardRagged embeds a padding-free batch for evaluation: tokens and
// segments are the concatenation of the sequences' real tokens, sequence s
// owns entries offsets[s]..offsets[s+1] (len(offsets) = B+1, from 0 to
// len(tokens)) and its positions restart at 0. Returns [T, dModel]. It
// writes no field of the layer: Backward does not follow it, and
// concurrent calls on their own contexts share the tables only.
func (e *Embedding) ForwardRagged(ctx *Ctx, tokens, segments, offsets []int) *tensor.Tensor {
	t := len(tokens)
	if ctx.Train {
		panic("nn: Embedding.ForwardRagged is evaluation-only")
	}
	if len(segments) != t || len(offsets) < 2 || offsets[0] != 0 || offsets[len(offsets)-1] != t {
		panic(fmt.Sprintf("nn: ragged Embedding got %d tokens, %d segments, offsets %v", t, len(segments), offsets))
	}
	for s := 1; s < len(offsets); s++ {
		if n := offsets[s] - offsets[s-1]; n < 1 || n > e.maxPos {
			panic(fmt.Sprintf("nn: ragged sequence %d has %d tokens, want 1..%d", s-1, n, e.maxPos))
		}
	}
	out := ctx.NewActivation(t, e.dModel)
	total := t * e.dModel
	ctx.Prof.Time("embedding_gather", profile.CatEmbedding, profile.Forward,
		kernels.EWFLOPs(total, 2), kernels.EWBytes(total, 3, 1, ctx.ElemSize()), func() {
			for s := 1; s < len(offsets); s++ {
				for r := offsets[s-1]; r < offsets[s]; r++ {
					e.sumRow(out.Row(r), tokens[r], segments[r], r-offsets[s-1])
				}
			}
		})
	return e.LN.Forward(ctx, out)
}

// Backward scatters gradients into the three embedding tables. The token
// scatter lands in the side accumulator; the caller must FlushTokScatter
// once per iteration (after the final Backward of an accumulation run)
// before reading or reducing Tok.Grad.
func (e *Embedding) Backward(ctx *Ctx, dY *tensor.Tensor) {
	if e.tokens == nil {
		panic("nn: Embedding.Backward called before Forward")
	}
	dH := e.Drop.Backward(ctx, dY)
	dSum := e.LN.Backward(ctx, dH)

	if e.tokScatter == nil {
		e.tokScatter = tensor.New(e.vocab, e.dModel)
		e.tokSeen = make([]bool, e.vocab)
	}
	for _, id := range e.tokens {
		if !e.tokSeen[id] {
			e.tokSeen[id] = true
			e.tokRows = append(e.tokRows, id)
		}
	}
	total := dSum.Size()
	es := ctx.ElemSize()
	ctx.Prof.Time("embedding_scatter", profile.CatEmbedding, profile.Backward,
		kernels.EWFLOPs(total, 3), kernels.EWBytes(total, 1, 3, es), func() {
			d := dSum.Data()
			for t := range e.tokens {
				row := d[t*e.dModel : (t+1)*e.dModel]
				tok := e.tokScatter.Row(e.tokens[t])
				pv := e.Pos.Grad.Row(t % e.seqLen)
				sv := e.Seg.Grad.Row(e.segments[t])
				for j, g := range row {
					tok[j] += g
					pv[j] += g
					sv[j] += g
				}
			}
		})
	e.tokens, e.segments = nil, nil
}

// FlushTokScatter folds the accumulated token-table scatter into
// Tok.Grad (on top of the tied decoder's GEMM contribution) and clears
// the accumulator. Call exactly once per logical iteration, after the
// last Backward.
//
// Only the rows scattered since the last flush are added and cleared;
// every other accumulator row is +0, and adding +0 leaves a float32 as it
// was unless it is −0 (which becomes +0) or a signalling NaN (which is
// quieted). Tok.Grad holds neither: ZeroGrads leaves it +0, its other
// writer before the flush is the decoder's weight-gradient GEMM, whose
// multiply-add chains start from that +0 — and a round-to-nearest sum is
// −0 only when both addends are — and arithmetic never produces a
// signalling NaN. So the sparse flush is bitwise the dense AccumulateInto
// plus ZeroAll over the whole vocab×d table on every state a training
// step reaches.
func (e *Embedding) FlushTokScatter(ctx *Ctx) {
	if e.tokScatter == nil {
		return
	}
	touched := len(e.tokRows) * e.dModel
	es := ctx.ElemSize()
	ctx.Prof.Time("embedding_scatter_flush", profile.CatEmbedding, profile.Backward,
		kernels.EWFLOPs(touched, 1), kernels.EWBytes(touched, 2, 2, es), func() {
			ctx.Pool.FlushRows(e.Tok.Grad.Data(), e.tokScatter.Data(), e.tokRows, e.dModel)
		})
	e.forgetTokRows()
}

// DropTokScatter discards any pending token-scatter accumulation — the
// ZeroGrads counterpart, so an abandoned half-iteration cannot leak into
// the next one. After a flush there is nothing to discard.
func (e *Embedding) DropTokScatter() {
	for _, id := range e.tokRows {
		clear(e.tokScatter.Row(id))
	}
	e.forgetTokRows()
}

func (e *Embedding) forgetTokRows() {
	for _, id := range e.tokRows {
		e.tokSeen[id] = false
	}
	e.tokRows = e.tokRows[:0]
}

// Params returns the embedding tables and LayerNorm parameters.
func (e *Embedding) Params() []*Param {
	return append([]*Param{e.Tok, e.Pos, e.Seg}, e.LN.Params()...)
}
