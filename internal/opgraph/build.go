package opgraph

import (
	"fmt"

	"demystbert/internal/kernels"
	"demystbert/internal/profile"
)

// Build enumerates every kernel of one training iteration of the workload:
// forward, backward (with optional checkpoint recompute), and the LAMB
// update. Kernel granularity mirrors the profiled PyTorch/ROCm stack the
// paper measured: GEMMs and batched GEMMs are single kernels; GeLU and the
// score pipeline run as separate element-wise kernels (Section 3.2.3);
// LayerNorm and per-layer LAMB stages are fused kernels (Section 6.1.1).
//
// With Workload.SliceWays = m > 1, the emitted graph is the per-device
// portion of m-way tensor slicing (Fig. 10): split GEMMs, replicated
// DR/RC/LN, and 1/m of the LAMB update. The four per-layer AllReduces are
// modeled by internal/dist, not here.
func Build(w Workload) *Graph {
	b := newBuilder(w)

	// Forward.
	b.embeddingFwd()
	b.transformerFwd(w.Cfg.NumLayers)
	switch w.Mode {
	case FineTuning:
		b.taskHeadFwd()
	case Inference:
		b.taskHeadFwd()
		// Inference ends at the forward pass (Section 7): no backprop,
		// no parameter update.
		return &Graph{Workload: w, Ops: b.ops}
	default:
		b.outputFwd()
	}

	// Backward (reverse order; each layer's backward has roughly 2× the
	// forward's GEMM work: d-activation and d-weight).
	if w.Mode == FineTuning {
		b.taskHeadBwd()
	} else {
		b.outputBwd()
	}
	if w.CheckpointEvery > 0 {
		// Each checkpointed segment is re-executed on demand during
		// backprop (Section 4: "recomputes activations after backprop of
		// every six Transformer layers"); the final segment's activations
		// are still live from the main forward pass and need no recompute.
		segments := (w.Cfg.NumLayers + w.CheckpointEvery - 1) / w.CheckpointEvery
		lastLen := w.Cfg.NumLayers - (segments-1)*w.CheckpointEvery
		b.recompute = true
		b.transformerFwd(w.Cfg.NumLayers - lastLen)
		b.recompute = false
	}
	b.transformerBwd(w.Cfg.NumLayers)
	b.embeddingBwd()

	// Update.
	switch w.Optimizer {
	case OptLAMB:
		b.lambUpdate()
	case OptAdam:
		b.adamUpdate()
	case OptSGD:
		b.sgdUpdate()
	}

	return &Graph{Workload: w, Ops: b.ops}
}

type builder struct {
	w         Workload
	m         int // tensor-slicing ways (1 = single device)
	ops       []Op
	recompute bool
}

func newBuilder(w Workload) *builder {
	m := w.SliceWays
	if m < 1 {
		m = 1
	}
	if m > 1 {
		cfg := w.Cfg
		// The head count and hidden dimensions must divide evenly; the
		// vocabulary is padded to a multiple of m, as Megatron-LM does.
		if cfg.Heads%m != 0 || cfg.DFF%m != 0 || cfg.DModel%m != 0 {
			panic(fmt.Sprintf("opgraph: %d-way slicing does not divide h=%d, d_ff=%d, d_model=%d",
				m, cfg.Heads, cfg.DFF, cfg.DModel))
		}
	}
	return &builder{w: w, m: m}
}

func (b *builder) es() int { return b.w.Precision.ElemSize() }

func (b *builder) add(op Op) {
	if op.Repeat == 0 {
		op.Repeat = 1
	}
	if op.ElemSize == 0 {
		op.ElemSize = b.es()
	}
	if b.recompute {
		// Recomputed forward kernels are part of the backward phase's
		// wall time but keep their forward cost structure.
		op.Name = op.Name + "_recompute"
	}
	b.ops = append(b.ops, op)
}

// gemm appends a GEMM op.
func (b *builder) gemm(name string, cat profile.Category, ph profile.Phase, class LayerClass, shape GEMMShape, repeat int) {
	es := b.es()
	b.add(Op{
		Name:     name,
		Category: cat,
		Phase:    ph,
		Class:    class,
		GEMM:     &shape,
		FLOPs:    shape.FLOPs(),
		Bytes:    shape.Bytes(es),
		Repeat:   repeat,
	})
}

// ew appends an element-wise kernel over n elements.
func (b *builder) ew(name string, cat profile.Category, ph profile.Phase, class LayerClass, n int, opsPerElem, arrays int, repeat int) {
	es := b.es()
	b.add(Op{
		Name:     name,
		Category: cat,
		Phase:    ph,
		Class:    class,
		FLOPs:    kernels.EWFLOPs(n, opsPerElem),
		Bytes:    int64(n) * int64(arrays) * int64(es),
		Repeat:   repeat,
	})
}

// embeddingFwd: gather of token+position+segment rows, LayerNorm, dropout.
// The embedding is replicated under tensor slicing (it is not one of the
// split layers in Fig. 10).
func (b *builder) embeddingFwd() {
	w := b.w
	nB := w.Tokens()
	d := w.Cfg.DModel
	act := nB * d
	b.ew("embedding_gather", profile.CatEmbedding, profile.Forward, ClassEmbedding, act, 2, 4, 1)
	b.ew("embedding_ln", profile.CatEmbedding, profile.Forward, ClassEmbedding, act, 8, 2, 1)
	b.ew("embedding_dropout", profile.CatEmbedding, profile.Forward, ClassEmbedding, act, 1, 3, 1)
}

func (b *builder) embeddingBwd() {
	w := b.w
	act := w.Tokens() * w.Cfg.DModel
	b.ew("embedding_dropout_bwd", profile.CatEmbedding, profile.Backward, ClassEmbedding, act, 1, 3, 1)
	b.ew("embedding_ln_bwd", profile.CatEmbedding, profile.Backward, ClassEmbedding, act, 14, 4, 1)
	b.ew("embedding_scatter", profile.CatEmbedding, profile.Backward, ClassEmbedding, act, 3, 4, 1)
}

// transformerFwd emits the forward kernels of `layers` Transformer layers.
// Under m-way slicing, projection output features, attention heads, and
// the FC intermediate dimension are each split m ways (Fig. 10b);
// dropout/residual/LayerNorm replicate the full activation.
func (b *builder) transformerFwd(layers int) {
	if layers == 0 {
		return
	}
	w := b.w
	cfg := w.Cfg
	m := b.m
	n, B := w.SeqLen, w.B
	d, ff := cfg.DModel, cfg.DFF
	h := cfg.Heads
	dh := d / h
	dm, hm, ffm := d/m, h/m, ff/m
	nB := n * B
	act := nB * d            // full token activations (replicated ops)
	actQ := nB * dm          // per-device projection activations
	scores := B * hm * n * n // per-device attention scores
	actFF := nB * ffm

	// Q/K/V projections: Table 2b "Linear" FWD d_model × n·B × d_model;
	// column-split to d/m output features per device under slicing.
	b.gemm("linear_qkv_fwd", profile.CatLinear, profile.Forward, ClassTransformer,
		GEMMShape{TransA: false, TransB: false, M: dm, N: nB, K: d, Batch: 1}, 3*layers)
	b.ew("split_heads", profile.CatOther, profile.Forward, ClassTransformer, 3*actQ, 0, 2, layers)

	// Attention scores: Table 2b "Attn. Score" FWD n × n × d/h, B·h GEMMs
	// (B·h/m per device).
	b.gemm("attn_score_bgemm", profile.CatAttnBGEMM, profile.Forward, ClassTransformer,
		GEMMShape{TransA: false, TransB: true, M: n, N: n, K: dh, Batch: B * hm}, layers)

	// Scale, mask, softmax, dropout over the score matrix: four separate
	// kernels as the paper profiles (Section 3.2.3), or the fused
	// scale+mask+softmax variant of the Section 6.1.1 optimization.
	if w.FusedAttention {
		b.ew("attn_scale_mask_softmax_fused", profile.CatScaleMaskSM, profile.Forward, ClassTransformer, scores, 6, 2, layers)
	} else {
		b.ew("attn_scale", profile.CatScaleMaskSM, profile.Forward, ClassTransformer, scores, 1, 2, layers)
		b.ew("attn_mask", profile.CatScaleMaskSM, profile.Forward, ClassTransformer, scores, 1, 3, layers)
		b.ew("attn_softmax", profile.CatScaleMaskSM, profile.Forward, ClassTransformer, scores, 4, 2, layers)
	}
	b.ew("attn_dropout", profile.CatScaleMaskSM, profile.Forward, ClassTransformer, scores, 1, 2, layers)

	// Weighted value sum: Table 2b "Attn. O/p" FWD d/h × n × n, B·h GEMMs.
	b.gemm("attn_output_bgemm", profile.CatAttnBGEMM, profile.Forward, ClassTransformer,
		GEMMShape{TransA: false, TransB: false, M: dh, N: n, K: n, Batch: B * hm}, layers)
	// Layout/contiguity kernels the framework interleaves with the
	// batched GEMMs (permute + contiguous on scores and context).
	b.ew("attn_permute", profile.CatOther, profile.Forward, ClassTransformer, scores, 0, 2, layers)
	b.ew("merge_heads", profile.CatOther, profile.Forward, ClassTransformer, actQ, 0, 2, layers)

	// Attention output projection (4th Linear GEMM): row-split weight,
	// producing partial sums that the TS AllReduce combines.
	b.gemm("linear_proj_fwd", profile.CatLinear, profile.Forward, ClassTransformer,
		GEMMShape{TransA: false, TransB: false, M: d, N: nB, K: dm, Batch: 1}, layers)

	// Attention block DR + RC + LN (replicated under slicing).
	b.ew("attn_block_dropout", profile.CatDRRCLN, profile.Forward, ClassTransformer, act, 1, 2, layers)
	b.ew("attn_residual", profile.CatDRRCLN, profile.Forward, ClassTransformer, act, 1, 3, layers)
	b.ew("attn_layernorm", profile.CatDRRCLN, profile.Forward, ClassTransformer, act, 8, 2, layers)

	// FC-1: Table 2b d_ff × n·B × d_model, column-split to d_ff/m.
	b.gemm("fc1_fwd", profile.CatFCGEMM, profile.Forward, ClassTransformer,
		GEMMShape{TransA: false, TransB: false, M: ffm, N: nB, K: d, Batch: 1}, layers)

	// GeLU: the paper's Eq. 1 executed as an erf kernel followed by the
	// element-wise combine (scale/add/multiply) kernel over the d_ff-wide
	// activation (Section 3.2.3).
	b.ew("gelu_erf", profile.CatGeLU, profile.Forward, ClassTransformer, actFF, 3, 2, layers)
	b.ew("gelu_combine", profile.CatGeLU, profile.Forward, ClassTransformer, actFF, 3, 3, layers)

	// FC-2: Table 2b d_model × n·B × d_ff, row-split along d_ff.
	b.gemm("fc2_fwd", profile.CatFCGEMM, profile.Forward, ClassTransformer,
		GEMMShape{TransA: false, TransB: false, M: d, N: nB, K: ffm, Batch: 1}, layers)

	// FC block DR + RC + LN (replicated under slicing).
	b.ew("ff_block_dropout", profile.CatDRRCLN, profile.Forward, ClassTransformer, act, 1, 2, layers)
	b.ew("ff_residual", profile.CatDRRCLN, profile.Forward, ClassTransformer, act, 1, 3, layers)
	b.ew("ff_layernorm", profile.CatDRRCLN, profile.Forward, ClassTransformer, act, 8, 2, layers)
}

// transformerBwd emits the backward kernels: per GEMM one d-activation and
// one d-weight GEMM (Table 2b BWD columns); per EW kernel one gradient
// kernel.
func (b *builder) transformerBwd(layers int) {
	w := b.w
	cfg := w.Cfg
	m := b.m
	n, B := w.SeqLen, w.B
	d, ff := cfg.DModel, cfg.DFF
	h := cfg.Heads
	dh := d / h
	dm, hm, ffm := d/m, h/m, ff/m
	nB := n * B
	act := nB * d
	actQ := nB * dm
	scores := B * hm * n * n
	actFF := nB * ffm

	// FC block DR+RC+LN backward (replicated).
	b.ew("ff_layernorm_bwd", profile.CatDRRCLN, profile.Backward, ClassTransformer, act, 14, 4, layers)
	b.ew("ff_residual_bwd", profile.CatDRRCLN, profile.Backward, ClassTransformer, act, 1, 3, layers)
	b.ew("ff_block_dropout_bwd", profile.CatDRRCLN, profile.Backward, ClassTransformer, act, 1, 3, layers)

	// FC-2 backward: d-act d_ff × n·B × d_model; d-wgt d_ff × d_model × n·B.
	b.gemm("fc2_bwd_dgrad", profile.CatFCGEMM, profile.Backward, ClassTransformer,
		GEMMShape{TransA: true, TransB: false, M: ffm, N: nB, K: d, Batch: 1}, layers)
	b.gemm("fc2_bwd_wgrad", profile.CatFCGEMM, profile.Backward, ClassTransformer,
		GEMMShape{TransA: false, TransB: true, M: ffm, N: d, K: nB, Batch: 1}, layers)

	// GeLU backward: the cdf/pdf kernel and the gradient combine.
	b.ew("gelu_bwd_cdfpdf", profile.CatGeLU, profile.Backward, ClassTransformer, actFF, 5, 2, layers)
	b.ew("gelu_bwd_combine", profile.CatGeLU, profile.Backward, ClassTransformer, actFF, 3, 3, layers)

	// FC-1 backward: d-act d_model × n·B × d_ff; d-wgt d_model × d_ff × n·B.
	b.gemm("fc1_bwd_dgrad", profile.CatFCGEMM, profile.Backward, ClassTransformer,
		GEMMShape{TransA: true, TransB: false, M: d, N: nB, K: ffm, Batch: 1}, layers)
	b.gemm("fc1_bwd_wgrad", profile.CatFCGEMM, profile.Backward, ClassTransformer,
		GEMMShape{TransA: false, TransB: true, M: d, N: ffm, K: nB, Batch: 1}, layers)

	// Attention block DR+RC+LN backward (replicated).
	b.ew("attn_layernorm_bwd", profile.CatDRRCLN, profile.Backward, ClassTransformer, act, 14, 4, layers)
	b.ew("attn_residual_bwd", profile.CatDRRCLN, profile.Backward, ClassTransformer, act, 1, 3, layers)
	b.ew("attn_block_dropout_bwd", profile.CatDRRCLN, profile.Backward, ClassTransformer, act, 1, 2, layers)

	// Output projection backward (2 GEMMs).
	b.gemm("linear_proj_bwd_dgrad", profile.CatLinear, profile.Backward, ClassTransformer,
		GEMMShape{TransA: true, TransB: false, M: dm, N: nB, K: d, Batch: 1}, layers)
	b.gemm("linear_proj_bwd_wgrad", profile.CatLinear, profile.Backward, ClassTransformer,
		GEMMShape{TransA: false, TransB: true, M: d, N: dm, K: nB, Batch: 1}, layers)
	b.ew("merge_heads_bwd", profile.CatOther, profile.Backward, ClassTransformer, actQ, 0, 2, layers)

	// Attention output BGEMM backward: Table 2b "Attn. O/p" BWD rows.
	b.gemm("attn_output_bgemm_bwd_dgrad", profile.CatAttnBGEMM, profile.Backward, ClassTransformer,
		GEMMShape{TransA: false, TransB: true, M: n, N: n, K: dh, Batch: B * hm}, layers)
	b.gemm("attn_output_bgemm_bwd_wgrad", profile.CatAttnBGEMM, profile.Backward, ClassTransformer,
		GEMMShape{TransA: true, TransB: false, M: n, N: dh, K: n, Batch: B * hm}, layers)

	// Score pipeline backward.
	b.ew("attn_dropout_bwd", profile.CatScaleMaskSM, profile.Backward, ClassTransformer, scores, 1, 2, layers)
	b.ew("attn_softmax_bwd", profile.CatScaleMaskSM, profile.Backward, ClassTransformer, scores, 4, 3, layers)
	b.ew("attn_scale_bwd", profile.CatScaleMaskSM, profile.Backward, ClassTransformer, scores, 1, 2, layers)

	// Score BGEMM backward: Table 2b "Attn. Score" BWD rows.
	b.gemm("attn_score_bgemm_bwd_dgrad", profile.CatAttnBGEMM, profile.Backward, ClassTransformer,
		GEMMShape{TransA: false, TransB: false, M: n, N: dh, K: n, Batch: B * hm}, layers)
	b.gemm("attn_score_bgemm_bwd_wgrad", profile.CatAttnBGEMM, profile.Backward, ClassTransformer,
		GEMMShape{TransA: true, TransB: false, M: dh, N: n, K: n, Batch: B * hm}, layers)
	b.ew("attn_permute_bwd", profile.CatOther, profile.Backward, ClassTransformer, scores, 0, 2, layers)
	b.ew("split_heads_bwd", profile.CatOther, profile.Backward, ClassTransformer, 3*actQ, 0, 2, layers)

	// Q/K/V projection backward: 3 × (d-act + d-wgt) GEMMs, plus the
	// input-gradient accumulation across the three branches.
	b.gemm("linear_qkv_bwd_dgrad", profile.CatLinear, profile.Backward, ClassTransformer,
		GEMMShape{TransA: true, TransB: false, M: d, N: nB, K: dm, Batch: 1}, 3*layers)
	b.gemm("linear_qkv_bwd_wgrad", profile.CatLinear, profile.Backward, ClassTransformer,
		GEMMShape{TransA: false, TransB: true, M: dm, N: d, K: nB, Batch: 1}, 3*layers)
	b.ew("qkv_input_grad_sum", profile.CatOther, profile.Backward, ClassTransformer, act, 2, 4, layers)
}

// outputFwd: the classification layer for BERT's two unsupervised tasks.
// Under slicing, the vocabulary dimension of the decoder is split m ways
// (Megatron's vocab-parallel output layer). The MLM head runs over
// Workload.MLMRows positions — all n·B tokens unless the workload gathers
// the scored ones first, which costs one gather here and one scatter in
// outputBwd.
func (b *builder) outputFwd() {
	w := b.w
	cfg := w.Cfg
	m := b.m
	rows := w.mlmRows()
	d, v := cfg.DModel, cfg.Vocab
	dm, vm := d/m, (v+m-1)/m

	if w.MLMRows > 0 {
		b.ew("mlm_gather", profile.CatOutput, profile.Forward, ClassOutput, rows*d, 0, 2, 1)
	}
	b.gemm("mlm_dense_fwd", profile.CatOutput, profile.Forward, ClassOutput,
		GEMMShape{M: dm, N: rows, K: d, Batch: 1}, 1)
	b.ew("mlm_gelu", profile.CatOutput, profile.Forward, ClassOutput, rows*dm, 5, 4, 1)
	b.ew("mlm_ln", profile.CatOutput, profile.Forward, ClassOutput, rows*d, 8, 2, 1)
	b.gemm("mlm_decoder_fwd", profile.CatOutput, profile.Forward, ClassOutput,
		GEMMShape{M: vm, N: rows, K: d, Batch: 1}, 1)
	b.ew("mlm_xent_fwd", profile.CatOutput, profile.Forward, ClassOutput, rows*vm, 4, 2, 1)
	// NSP head: B rows only — negligible, folded into one kernel.
	b.ew("nsp_head_fwd", profile.CatOutput, profile.Forward, ClassOutput, w.B*d, 8, 4, 1)
}

func (b *builder) outputBwd() {
	w := b.w
	cfg := w.Cfg
	m := b.m
	rows := w.mlmRows()
	d, v := cfg.DModel, cfg.Vocab
	dm, vm := d/m, (v+m-1)/m

	b.ew("nsp_head_bwd", profile.CatOutput, profile.Backward, ClassOutput, w.B*d, 8, 4, 1)
	b.ew("mlm_xent_bwd", profile.CatOutput, profile.Backward, ClassOutput, rows*vm, 2, 2, 1)
	b.gemm("mlm_decoder_bwd_dgrad", profile.CatOutput, profile.Backward, ClassOutput,
		GEMMShape{TransA: true, TransB: false, M: d, N: rows, K: vm, Batch: 1}, 1)
	b.gemm("mlm_decoder_bwd_wgrad", profile.CatOutput, profile.Backward, ClassOutput,
		GEMMShape{TransA: false, TransB: true, M: vm, N: d, K: rows, Batch: 1}, 1)
	b.ew("mlm_ln_bwd", profile.CatOutput, profile.Backward, ClassOutput, rows*d, 14, 4, 1)
	b.ew("mlm_gelu_bwd", profile.CatOutput, profile.Backward, ClassOutput, rows*dm, 8, 4, 1)
	b.gemm("mlm_dense_bwd_dgrad", profile.CatOutput, profile.Backward, ClassOutput,
		GEMMShape{TransA: true, TransB: false, M: d, N: rows, K: dm, Batch: 1}, 1)
	b.gemm("mlm_dense_bwd_wgrad", profile.CatOutput, profile.Backward, ClassOutput,
		GEMMShape{TransA: false, TransB: true, M: dm, N: d, K: rows, Batch: 1}, 1)
	if w.MLMRows > 0 {
		b.ew("mlm_scatter", profile.CatOutput, profile.Backward, ClassOutput, rows*d, 0, 2, 1)
	}
}

// taskHeadFwd: a fine-tuning task head modeled on SQuAD's span
// classifier — a single d_model × 2 projection per token plus softmax
// over positions. The paper notes such heads are simpler than the
// pre-training tasks and a negligible component (Section 7).
func (b *builder) taskHeadFwd() {
	w := b.w
	nB := w.Tokens()
	d := w.Cfg.DModel
	b.gemm("task_head_fwd", profile.CatOutput, profile.Forward, ClassOutput,
		GEMMShape{M: 2, N: nB, K: d, Batch: 1}, 1)
	b.ew("task_softmax_fwd", profile.CatOutput, profile.Forward, ClassOutput, 2*nB, 4, 2, 1)
}

func (b *builder) taskHeadBwd() {
	w := b.w
	nB := w.Tokens()
	d := w.Cfg.DModel
	b.ew("task_softmax_bwd", profile.CatOutput, profile.Backward, ClassOutput, 2*nB, 2, 2, 1)
	b.gemm("task_head_bwd_dgrad", profile.CatOutput, profile.Backward, ClassOutput,
		GEMMShape{TransA: true, TransB: false, M: d, N: nB, K: 2, Batch: 1}, 1)
	b.gemm("task_head_bwd_wgrad", profile.CatOutput, profile.Backward, ClassOutput,
		GEMMShape{TransA: false, TransB: true, M: 2, N: d, K: nB, Batch: 1}, 1)
}

// lambUpdate: the global gradient-norm reduction followed by the two LAMB
// stages, all in FP32 (Sections 2.4, 3.2.3). As the paper describes, the
// per-layer LAMB operations arrive pre-fused into one Stage-1 and one
// Stage-2 kernel per model layer (Section 6.1.1: "LAMB operations of a
// single layer are already fused in PyTorch"), each accessing that layer's
// weights, gradients, and optimizer state. Under m-way slicing each
// device updates 1/m of every group (Takeaway 12).
func (b *builder) lambUpdate() {
	const fp32 = 4
	groups := ParamGroups(b.w.Cfg)

	var totalParams int64
	for _, t := range groups {
		totalParams += int64(t.Size) / int64(b.m)
	}
	// Global L2 norm over all gradients: one read of the model's
	// gradients; serializes the update against the entire backprop.
	b.add(Op{
		Name:     "lamb_global_gradnorm",
		Category: profile.CatLAMBStage1,
		Phase:    profile.Update,
		Class:    ClassLAMB,
		FLOPs:    2 * totalParams,
		Bytes:    totalParams * fp32,
		ElemSize: fp32,
		Repeat:   1,
	})
	for _, t := range groups {
		n := int64(t.Size) / int64(b.m)
		// Stage 1 reads g, m, v, w and writes m, v, update.
		b.add(Op{
			Name:     "lamb_stage1",
			Category: profile.CatLAMBStage1,
			Phase:    profile.Update,
			Class:    ClassLAMB,
			FLOPs:    12 * n,
			Bytes:    7 * n * fp32,
			ElemSize: fp32,
			Repeat:   1,
		})
		// Stage 2 reads update, w (incl. norms) and writes w.
		b.add(Op{
			Name:     "lamb_stage2",
			Category: profile.CatLAMBStage2,
			Phase:    profile.Update,
			Class:    ClassLAMB,
			FLOPs:    6 * n,
			Bytes:    3 * n * fp32,
			ElemSize: fp32,
			Repeat:   1,
		})
	}
}

// adamUpdate: fused multi-tensor Adam (the paper's footnote-2 alternate):
// per chunk of parameter tensors, one kernel reading g, m, v, w and
// writing m, v, w — no global norm, no second stage.
func (b *builder) adamUpdate() {
	const fp32 = 4
	const chunk = 320 // tensors per multi-tensor launch (apex-style)
	tensors := ParamTensors(b.w.Cfg)
	for lo := 0; lo < len(tensors); lo += chunk {
		hi := lo + chunk
		if hi > len(tensors) {
			hi = len(tensors)
		}
		var n int64
		for _, t := range tensors[lo:hi] {
			n += int64(t.Size) / int64(b.m)
		}
		b.add(Op{
			Name:     "adam_fused_multitensor",
			Category: profile.CatOptimizer,
			Phase:    profile.Update,
			Class:    ClassLAMB, // update-phase class for Fig. 3 grouping
			FLOPs:    11 * n,
			Bytes:    7 * n * fp32,
			ElemSize: fp32,
			Repeat:   1,
		})
	}
}

// sgdUpdate: w -= lr·g, one kernel per parameter group.
func (b *builder) sgdUpdate() {
	const fp32 = 4
	for _, g := range ParamGroups(b.w.Cfg) {
		n := int64(g.Size) / int64(b.m)
		b.add(Op{
			Name:     "sgd_apply",
			Category: profile.CatOptimizer,
			Phase:    profile.Update,
			Class:    ClassLAMB,
			FLOPs:    2 * n,
			Bytes:    3 * n * fp32,
			ElemSize: fp32,
			Repeat:   1,
		})
	}
}
