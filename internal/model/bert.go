package model

import (
	"fmt"
	"math"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// CkptSpiller stores checkpointed activations outside the heap. Spill is
// called during Forward with checkpoint index idx and the activation
// values; Restore must fill dst with exactly the bytes Spill received for
// that index. Implementations may assume per-index lengths are stable
// across iterations and must be bitwise-faithful — the recompute pass
// depends on replaying identical inputs.
type CkptSpiller interface {
	Spill(idx int, data []float32)
	Restore(idx int, dst []float32)
}

// BERT is the full pre-training network: embedding, N encoder layers, the
// masked-LM head (dense + GeLU + LN + vocabulary decoder) and the NSP head
// (CLS pooler + tanh + binary classifier).
type BERT struct {
	Config Config

	Embed  *nn.Embedding
	Layers []*nn.EncoderLayer

	MLMDense   *nn.Linear
	MLMAct     *nn.GeLU
	MLMLN      *nn.LayerNorm
	MLMDecoder *nn.Linear

	Pooler *nn.Linear
	NSP    *nn.Linear

	// CheckpointEvery enables activation checkpointing (Section 4): when
	// k > 0, forward activations are checkpointed every k layers and the
	// segment is re-executed during backprop. BERT-Large's published
	// recipe uses k = 6 (√N ≈ 4 checkpoints over 24 layers).
	CheckpointEvery int

	// CkptSpill, when non-nil alongside CheckpointEvery, streams the
	// checkpointed segment inputs to external storage instead of keeping
	// them on the heap (internal/memscale's arena): Forward spills each
	// checkpoint as it is taken, Backward restores one at a time into a
	// single reused buffer. Spilled bytes round-trip bitwise, so results
	// are unchanged; peak activation memory drops to one segment's.
	CkptSpill CkptSpiller

	// GradHook, when non-nil, is invoked during Backward as parameter
	// gradients become final, with an index into GradGroups(): once after
	// the output heads' backward, once after each encoder layer's
	// backward (last layer first), and once after the embedding backward.
	// Distributed trainers use it to launch a gradient bucket's AllReduce
	// the moment its last gradient is produced, overlapping communication
	// with the remaining backprop (internal/distnet).
	GradHook func(group int)

	// Saved iteration state. The MLM head runs over the scored positions
	// only: mlmRows lists them (row indices into the [B·n, d] sequence
	// output, ascending), mlmTargets their targets, and mlmProbs has one
	// row per entry; all three are nil when the batch scores no position.
	batch      *data.Batch
	seqOut     *tensor.Tensor
	mlmRows    []int
	mlmTargets []int
	mlmProbs   *tensor.Tensor
	nspProbs   *tensor.Tensor
	pooledTanh *tensor.Tensor
	ckptInputs []*tensor.Tensor

	// The loss fold and normalization counts of the in-flight iteration.
	accum accumState

	params   []*nn.Param   // Params, built on first use
	gradBufs [][]float32   // ZeroGrads' reused list of gradient buffers
	pool     *kernels.Pool // the last Forward's ctx pool, which ZeroGrads clears on
}

// accumState threads the loss fold and normalization counts across the
// micro-batches of one iteration; Forward and Step run one micro-batch.
// The cross-entropy sums continue the exact float64 fold a full-batch step
// would run, and the backward normalizes by the FULL batch's scored-row
// totals, so summed micro-batch gradients and the final loss are
// bitwise-identical to one full-batch step.
type accumState struct {
	// last marks the iteration's final micro-batch: its backward fires
	// GradHook and flushes the token scatter.
	last bool

	mlmSum, nspSum     float64
	mlmTotal, nspTotal int // full-batch scored-row counts
}

// newAccum arms an iteration over batch b: each head's loss is normalized
// by the batch's count of targets that are not IgnoreIndex.
func newAccum(b *data.Batch) accumState {
	a := accumState{mlmTotal: b.MaskedCount()}
	for _, l := range b.NSPLabels {
		if l != kernels.IgnoreIndex {
			a.nspTotal++
		}
	}
	return a
}

// loss is the iteration's summed MLM + NSP mean loss.
func (a *accumState) loss() float64 {
	var loss float64
	if a.mlmTotal > 0 {
		loss += a.mlmSum / float64(a.mlmTotal)
	}
	if a.nspTotal > 0 {
		loss += a.nspSum / float64(a.nspTotal)
	}
	return loss
}

// New constructs a BERT model with deterministic initialization.
func New(cfg Config, seed uint64) (*BERT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	m := &BERT{
		Config:     cfg,
		Embed:      nn.NewEmbedding(cfg.Vocab, cfg.MaxPos, cfg.DModel, cfg.DropProb, rng),
		MLMDense:   nn.NewLinear("mlm.dense", cfg.DModel, cfg.DModel, profile.CatOutput, rng),
		MLMAct:     nn.NewGeLU(),
		MLMLN:      nn.NewLayerNorm("mlm.ln", cfg.DModel),
		MLMDecoder: nn.NewLinear("mlm.decoder", cfg.DModel, cfg.Vocab, profile.CatOutput, rng),
		Pooler:     nn.NewLinear("nsp.pooler", cfg.DModel, cfg.DModel, profile.CatOutput, rng),
		NSP:        nn.NewLinear("nsp.classifier", cfg.DModel, 2, profile.CatOutput, rng),
	}
	// Tie the MLM decoder weight to the token embedding table, as BERT
	// does: both are [vocab, d_model] and share storage and gradient, so
	// the model lands at the paper's ~340M parameters for BERT-Large.
	m.MLMDecoder.W = m.Embed.Tok
	for i := 0; i < cfg.NumLayers; i++ {
		layer := nn.NewEncoderLayer(fmt.Sprintf("encoder.%d", i), cfg.DModel, cfg.Heads, cfg.DFF, cfg.DropProb, rng)
		layer.Attn.Causal = cfg.Causal
		m.Layers = append(m.Layers, layer)
	}
	return m, nil
}

// Forward runs the forward pass over a batch as a one-micro-batch
// iteration and returns the summed MLM + NSP loss. State is retained for a
// subsequent Backward. Like EncodeEval it starts a new pass on ctx's
// workspace, from which this forward and the Backward that follows draw
// every activation and activation gradient: what they return is valid
// until the next forward on ctx.
func (m *BERT) Forward(ctx *nn.Ctx, b *data.Batch) float64 {
	m.accum = newAccum(b)
	m.accum.last = true
	m.forward(ctx, b)
	return m.accum.loss()
}

// forward runs one micro-batch's forward pass, folding its losses into
// m.accum.
func (m *BERT) forward(ctx *nn.Ctx, b *data.Batch) {
	ctx.ResetWorkspace()
	m.batch, m.pool = b, ctx.Pool
	m.seqOut = m.encode(ctx, b.Tokens, b.Segments, b.B, b.N, b.Mask)
	m.headsForward(ctx, m.seqOut)
}

// encode runs the embedding and the encoder stack over a [b, n] batch —
// the trunk pre-training and fine-tuning share. With CheckpointEvery k > 0
// it keeps the input of every k-th layer for encodeBackward's recompute,
// or spills it through CkptSpill.
func (m *BERT) encode(ctx *nn.Ctx, tokens, segments []int, b, n int, mask *tensor.Tensor) *tensor.Tensor {
	h := m.Embed.Forward(ctx, tokens, segments, b, n)
	m.ckptInputs = m.ckptInputs[:0]
	for i, layer := range m.Layers {
		if m.CheckpointEvery > 0 && i%m.CheckpointEvery == 0 {
			if m.CkptSpill != nil {
				// Stream the checkpoint out; a nil placeholder keeps the
				// segment indexing intact. The tensor itself stays live
				// only until the next layer consumes it.
				idx := len(m.ckptInputs)
				ctx.Prof.Time("spill_ckpt_write", profile.CatOther, profile.Forward,
					0, int64(h.Size())*4, func() {
						m.CkptSpill.Spill(idx, h.Data())
					})
				m.ckptInputs = append(m.ckptInputs, nil)
			} else {
				m.ckptInputs = append(m.ckptInputs, h)
			}
		}
		h = layer.Forward(ctx, h, b, n, mask)
	}
	return h
}

// gatherRows copies the listed rows of x into a new [len(rows), d] tensor,
// as the named output-category kernel. It is what lets an MLM head cost
// O(rows · vocab) instead of O(B·n · vocab): training gathers the positions
// the loss scores, serving the positions a request asks about.
func gatherRows(ctx *nn.Ctx, name string, x *tensor.Tensor, rows []int) *tensor.Tensor {
	d := x.Dim(1)
	out := ctx.NewActivation(len(rows), d)
	ctx.Prof.Time(name, profile.CatOutput, profile.Forward,
		0, kernels.EWBytes(len(rows)*d, 1, 1, ctx.ElemSize()), func() {
			for i, r := range rows {
				copy(out.Row(i), x.Row(r))
			}
		})
	return out
}

// headsForward folds both task losses of the encoder output into m.accum.
func (m *BERT) headsForward(ctx *nn.Ctx, seq *tensor.Tensor) {
	b := m.batch
	cfg := m.Config

	// Masked-LM head over the scored positions only. The loss ignores every
	// other row (kernels.IgnoreIndex, ~85% of them), no head operator mixes
	// rows in forward, and every cross-row fold in backward is sequential
	// and destination-seeded, so running the head on the gathered rows is
	// bitwise what running it on all B·n and dropping the rest would be
	// (DESIGN.md §7a). A batch with nothing scored — possible for a
	// StepAccum micro-batch — skips the head.
	m.mlmRows, m.mlmTargets, m.mlmProbs = m.mlmRows[:0], m.mlmTargets[:0], nil
	for r, t := range b.MLMTargets {
		if t != kernels.IgnoreIndex {
			m.mlmRows = append(m.mlmRows, r)
			m.mlmTargets = append(m.mlmTargets, t)
		}
	}
	if rows := len(m.mlmRows); rows > 0 {
		x := gatherRows(ctx, "mlm_gather", seq, m.mlmRows)
		x = m.MLMDense.ForwardBiasGeLU(ctx, x, m.MLMAct)
		x = m.MLMLN.Forward(ctx, x)
		logits := m.MLMDecoder.Forward(ctx, x)
		m.mlmProbs = ctx.NewActivation(rows, cfg.Vocab)
		nl := rows * cfg.Vocab
		ctx.Prof.Time("mlm_xent_fwd", profile.CatOutput, profile.Forward,
			kernels.EWFLOPs(nl, 4), kernels.EWBytes(nl, 1, 1, ctx.ElemSize()), func() {
				m.accum.mlmSum, _ = ctx.Pool.CrossEntropySumForward(
					m.mlmProbs.Data(), logits.Data(), m.mlmTargets, rows, cfg.Vocab, m.accum.mlmSum, 0)
			})
	}

	// NSP head over the CLS token of each sequence.
	cls := ctx.NewActivation(b.B, cfg.DModel)
	ctx.Prof.Time("cls_gather", profile.CatOutput, profile.Forward,
		0, kernels.EWBytes(b.B*cfg.DModel, 1, 1, ctx.ElemSize()), func() {
			for s := 0; s < b.B; s++ {
				copy(cls.Row(s), seq.Row(s*b.N))
			}
		})
	pooled := m.Pooler.Forward(ctx, cls)
	m.pooledTanh = ctx.NewActivation(b.B, cfg.DModel)
	np := b.B * cfg.DModel
	ctx.Prof.Time("pooler_tanh", profile.CatOutput, profile.Forward,
		kernels.EWFLOPs(np, 4), kernels.EWBytes(np, 1, 1, ctx.ElemSize()), func() {
			pd, td := pooled.Data(), m.pooledTanh.Data()
			for i, v := range pd {
				td[i] = tanh32(v)
			}
		})
	nspLogits := m.NSP.Forward(ctx, m.pooledTanh)
	m.nspProbs = ctx.NewActivation(b.B, 2)
	ctx.Prof.Time("nsp_xent_fwd", profile.CatOutput, profile.Forward,
		kernels.EWFLOPs(b.B*2, 4), kernels.EWBytes(b.B*2, 1, 1, ctx.ElemSize()), func() {
			m.accum.nspSum, _ = ctx.Pool.CrossEntropySumForward(
				m.nspProbs.Data(), nspLogits.Data(), b.NSPLabels, b.B, 2, m.accum.nspSum, 0)
		})
}

// Backward backpropagates the combined loss, accumulating all parameter
// gradients. It must follow a Forward on the same batch.
func (m *BERT) Backward(ctx *nn.Ctx) {
	if m.batch == nil {
		panic("model: Backward called before Forward")
	}
	dSeq := m.headsBackward(ctx)

	// All head gradients are final once the CLS path has backpropagated.
	m.fireGrad(0)
	m.encodeBackward(ctx, dSeq, m.batch.B, m.batch.N, m.batch.Mask, m.accum.last, m.fireGrad)

	m.dropIterationState()
}

// headsBackward backpropagates both task losses through their heads and
// returns the gradient with respect to the encoder output.
func (m *BERT) headsBackward(ctx *nn.Ctx) *tensor.Tensor {
	b := m.batch
	cfg := m.Config
	es := ctx.ElemSize()

	// MLM head backward over the scored rows; its input gradient scatters
	// into the rows of dSeq it was gathered from, and every other row of
	// dSeq is exactly zero, as the all-rows head computed it. The CLS
	// gradient then accumulates into dSeq, so it is the step's one zeroed
	// draw.
	dSeq := ctx.NewZeroedActivation(b.B*b.N, cfg.DModel)
	if rows := len(m.mlmRows); rows > 0 {
		dLogits := ctx.NewActivation(rows, cfg.Vocab)
		nl := rows * cfg.Vocab
		ctx.Prof.Time("mlm_xent_bwd", profile.CatOutput, profile.Backward,
			kernels.EWFLOPs(nl, 2), kernels.EWBytes(nl, 1, 1, es), func() {
				// Normalize by the FULL batch's scored-row count so the
				// summed micro-batch gradients match one full-batch step.
				ctx.Pool.CrossEntropyBackwardCount(dLogits.Data(), m.mlmProbs.Data(), m.mlmTargets, rows, cfg.Vocab, m.accum.mlmTotal)
				if s := ctx.EffectiveLossScale(); s != 1 {
					ctx.Pool.Scale(dLogits.Data(), dLogits.Data(), s)
				}
			})
		dx := m.MLMDecoder.Backward(ctx, dLogits)
		dx = m.MLMLN.Backward(ctx, dx)
		dx = m.MLMAct.Backward(ctx, dx)
		dx = m.MLMDense.Backward(ctx, dx)
		ctx.Prof.Time("mlm_scatter", profile.CatOutput, profile.Backward,
			0, kernels.EWBytes(rows*cfg.DModel, 1, 1, es), func() {
				for i, r := range m.mlmRows {
					copy(dSeq.Row(r), dx.Row(i))
				}
			})
	}

	// NSP head backward.
	dNSPLogits := ctx.NewActivation(b.B, 2)
	ctx.Prof.Time("nsp_xent_bwd", profile.CatOutput, profile.Backward,
		kernels.EWFLOPs(b.B*2, 2), kernels.EWBytes(b.B*2, 1, 1, es), func() {
			ctx.Pool.CrossEntropyBackwardCount(dNSPLogits.Data(), m.nspProbs.Data(), b.NSPLabels, b.B, 2, m.accum.nspTotal)
			if s := ctx.EffectiveLossScale(); s != 1 {
				ctx.Pool.Scale(dNSPLogits.Data(), dNSPLogits.Data(), s)
			}
		})
	dPooledTanh := m.NSP.Backward(ctx, dNSPLogits)
	np := b.B * cfg.DModel
	ctx.Prof.Time("pooler_tanh_bwd", profile.CatOutput, profile.Backward,
		kernels.EWFLOPs(np, 3), kernels.EWBytes(np, 2, 1, es), func() {
			dd, td := dPooledTanh.Data(), m.pooledTanh.Data()
			for i := range dd {
				// The square is rounded before the subtract, so arm64
				// does not fuse the two (check.sh greps the listing).
				dd[i] *= 1 - float32(td[i]*td[i])
			}
		})
	dCLS := m.Pooler.Backward(ctx, dPooledTanh)
	ctx.Prof.Time("cls_scatter", profile.CatOutput, profile.Backward,
		kernels.EWFLOPs(b.B*cfg.DModel, 1), kernels.EWBytes(b.B*cfg.DModel, 2, 1, es), func() {
			for s := 0; s < b.B; s++ {
				dst := dSeq.Row(s * b.N)
				src := dCLS.Row(s)
				for j := range src {
					dst[j] += src[j]
				}
			}
		})

	return dSeq
}

// dropIterationState releases what Forward saved for Backward, keeping
// the scored-row lists' memory for the next Forward.
func (m *BERT) dropIterationState() {
	m.batch, m.seqOut, m.nspProbs, m.pooledTanh = nil, nil, nil, nil
	m.mlmRows, m.mlmTargets, m.mlmProbs = m.mlmRows[:0], m.mlmTargets[:0], nil
}

// encodeBackward backpropagates dSeq through the encoder stack, last
// layer first, and into the embedding. Under checkpointing every segment
// but the last is first re-executed forward from its checkpoint, dropout
// masks replayed — the recomputation the paper measures as ~33% more
// kernels and ~27% more runtime (Section 4); the last segment's
// activations are still live from the forward pass. With flush set — the
// iteration's final micro-batch — the token-table scatter is merged into
// the tied gradient. fire, when non-nil, is called with each GradGroups
// index as its gradients become final.
func (m *BERT) encodeBackward(ctx *nn.Ctx, dSeq *tensor.Tensor, b, n int, mask *tensor.Tensor, flush bool, fire func(group int)) {
	k := m.CheckpointEvery
	if k <= 0 {
		k = len(m.Layers)
	}
	nSeg := (len(m.Layers) + k - 1) / k
	for seg := nSeg - 1; seg >= 0; seg-- {
		first := seg * k
		last := min(first+k, len(m.Layers)) - 1
		if seg != nSeg-1 {
			ctx.Recompute = true
			h := m.ckptInputs[seg]
			if h == nil {
				// Spilled checkpoint: restore into a workspace draw, which
				// Restore fills whole.
				h = ctx.NewActivation(b*n, m.Config.DModel)
				ctx.Prof.Time("spill_ckpt_read", profile.CatOther, profile.Backward,
					0, int64(h.Size())*4, func() {
						m.CkptSpill.Restore(seg, h.Data())
					})
			}
			for i := first; i <= last; i++ {
				h = m.Layers[i].Forward(ctx, h, b, n, mask)
			}
			ctx.Recompute = false
		}
		for i := last; i >= first; i-- {
			dSeq = m.Layers[i].Backward(ctx, dSeq)
			if fire != nil {
				fire(1 + (len(m.Layers) - 1 - i))
			}
		}
	}
	m.Embed.Backward(ctx, dSeq)
	if flush {
		m.Embed.FlushTokScatter(ctx)
	}
	if fire != nil {
		fire(1 + len(m.Layers))
	}
	m.ckptInputs = m.ckptInputs[:0]
}

func (m *BERT) fireGrad(group int) {
	// Under gradient accumulation a group's gradients are final only once
	// the LAST micro-batch has backpropagated through it.
	if m.GradHook != nil && m.accum.last {
		m.GradHook(group)
	}
}

// GradGroups partitions the trainable parameters into
// gradient-completion groups in the order Backward finalizes them: the
// output heads first, then the encoder layers from last to first, then
// the embedding. The tied MLM decoder weight lives in the embedding
// group — its gradient receives a contribution from the decoder backward
// early, but is final only after the embedding backward at the very end
// of backprop. Every Params() element appears in exactly one group;
// GradHook fires with these indices.
func (m *BERT) GradGroups() [][]*nn.Param {
	embed := m.Embed.Params()
	inEmbed := make(map[*nn.Param]bool, len(embed))
	for _, p := range embed {
		inEmbed[p] = true
	}
	var heads []*nn.Param
	for _, ps := range [][]*nn.Param{
		m.MLMDense.Params(), m.MLMLN.Params(), m.MLMDecoder.Params(),
		m.Pooler.Params(), m.NSP.Params(),
	} {
		for _, p := range ps {
			if !inEmbed[p] {
				heads = append(heads, p)
			}
		}
	}
	groups := make([][]*nn.Param, 0, 2+len(m.Layers))
	groups = append(groups, heads)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		groups = append(groups, m.Layers[i].Params())
	}
	return append(groups, embed)
}

// Step runs one full training iteration's forward and backward passes and
// returns the loss: StepAccum of one micro-batch. Parameter gradients
// accumulate; the optimizer update is the caller's job (internal/optim),
// matching the paper's FWD/BWD/update decomposition.
func (m *BERT) Step(ctx *nn.Ctx, b *data.Batch) float64 {
	return m.StepAccum(ctx, b, 1)
}

// StepAccum runs one logical training iteration of batch b as accumSteps
// sequential micro-batches of B/accumSteps sequences each, summing
// parameter gradients across the micro-batches; the caller applies the
// optimizer once afterwards, exactly as after Step. With dropout disabled
// (DropProb 0 — dropout consumes no RNG then) and a forced GEMM path, the
// accumulated gradients and the returned loss are BITWISE-identical to
// m.Step(ctx, b): every cross-token reduction in the engine is a
// destination-seeded fold in token order, so splitting the token range
// over micro-batches reassociates nothing (pinned in internal/audit).
// Under GEMMPathAuto the size-based routing may pick different engines
// for micro vs full shapes, which is still valid training but not
// bitwise. GradHook fires only during the last micro-batch, when
// gradients are final. accumSteps ≤ 1 runs the batch as one micro-batch.
func (m *BERT) StepAccum(ctx *nn.Ctx, b *data.Batch, accumSteps int) float64 {
	accumSteps = max(accumSteps, 1)
	if b.B%accumSteps != 0 {
		panic(fmt.Sprintf("model: StepAccum batch B=%d not divisible into %d micro-steps", b.B, accumSteps))
	}
	micro := b.B / accumSteps
	m.accum = newAccum(b)
	ctx.Prof.BeginIteration()
	for s := 0; s < accumSteps; s++ {
		m.accum.last = s == accumSteps-1
		mb := b // one micro-batch is the batch itself, with no Slice to allocate
		if accumSteps > 1 {
			mb = b.Slice(s*micro, (s+1)*micro)
		}
		sp := ctx.StartSpan("fwd")
		m.forward(ctx, mb)
		sp.End()
		sp = ctx.StartSpan("bwd")
		m.Backward(ctx)
		sp.End()
	}
	return m.accum.loss()
}

// Params returns every trainable parameter of the model exactly once
// (the tied MLM decoder weight appears only under the embedding). The
// list is built on the first call and shared by every later one: the
// caller must not modify it.
func (m *BERT) Params() []*nn.Param {
	if m.params == nil {
		m.params = m.collectParams()
	}
	return m.params[:len(m.params):len(m.params)]
}

func (m *BERT) collectParams() []*nn.Param {
	ps := m.Embed.Params()
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	ps = append(ps, m.MLMDense.Params()...)
	ps = append(ps, m.MLMLN.Params()...)
	ps = append(ps, m.MLMDecoder.Params()...)
	ps = append(ps, m.Pooler.Params()...)
	ps = append(ps, m.NSP.Params()...)

	seen := make(map[*nn.Param]bool, len(ps))
	uniq := ps[:0]
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	return uniq
}

// NumParams returns the total trainable-parameter count.
func (m *BERT) NumParams() int {
	total := 0
	for _, p := range m.Params() {
		total += p.Size()
	}
	return total
}

// ZeroGrads clears all parameter gradients in one region of the pool the
// last Forward's ctx carried (the process pool before any Forward),
// including any pending token-scatter accumulation from an abandoned
// half-iteration.
func (m *BERT) ZeroGrads() {
	m.gradBufs = zeroGrads(m.pool, m.gradBufs, m.Params())
	m.Embed.DropTokScatter()
}

// zeroGrads clears the gradients of params at once (Pool.ZeroAll on
// pool), collecting their buffers into bufs, which it returns for reuse.
// The buffers are read at every call: a distributed trainer rebinds them.
func zeroGrads(pool *kernels.Pool, bufs [][]float32, params []*nn.Param) [][]float32 {
	bufs = bufs[:0]
	for _, p := range params {
		bufs = append(bufs, p.Grad.Data())
	}
	pool.ZeroAll(bufs...)
	return bufs
}

func tanh32(x float32) float32 {
	return float32(math.Tanh(float64(x)))
}
