// Package opgraph builds the architecture-agnostic operator graph of a
// BERT training iteration: every kernel the iteration launches, with its
// exact GEMM dimensions (paper Table 2b), floating-point operation count,
// algorithmic byte traffic, operator category, and training phase.
//
// This is the paper's own methodology made executable: Section 3.1.1
// argues for characterizing BERT by the manifestation, size, and
// arithmetic intensity of its operations — quantities that depend only on
// the network architecture, hyperparameters, and training technique, not
// on any particular accelerator. The graph is consumed by
// internal/perfmodel (roofline timing), internal/dist (multi-device
// models), internal/fusion, and internal/nmc.
package opgraph

import (
	"fmt"

	"demystbert/internal/kernels"
	"demystbert/internal/model"
	"demystbert/internal/profile"
)

// Precision selects the training numeric mode of a workload.
type Precision int

const (
	// FP32 is single-precision training.
	FP32 Precision = iota
	// Mixed is mixed-precision training: FP16 storage and matrix-core
	// arithmetic for forward/backward, FP32 master weights and optimizer
	// (paper Section 3.2.1).
	Mixed
)

// String returns "FP32" or "FP16" (the paper labels mixed precision FP16).
func (p Precision) String() string {
	if p == Mixed {
		return "FP16"
	}
	return "FP32"
}

// ElemSize returns the activation element size in bytes.
func (p Precision) ElemSize() int {
	if p == Mixed {
		return 2
	}
	return 4
}

// LayerClass is the paper's top-level runtime decomposition (Fig. 3).
type LayerClass int

const (
	ClassTransformer LayerClass = iota
	ClassEmbedding
	ClassOutput
	ClassLAMB
	ClassComm // distributed-training communication (Fig. 11)
)

// String returns the display name used in Fig. 3 and Fig. 11.
func (c LayerClass) String() string {
	switch c {
	case ClassTransformer:
		return "Transformer"
	case ClassEmbedding:
		return "Embedding"
	case ClassOutput:
		return "Output"
	case ClassLAMB:
		return "LAMB"
	case ClassComm:
		return "Comm"
	default:
		return "???"
	}
}

// GEMMShape describes one (possibly batched) GEMM in the orientation of
// Table 2b: an output of M×N accumulated over K, executed Batch times as a
// single batched kernel. TransA/TransB are the operand layout flags the
// framework passes to the BLAS library (Fig. 6 labels).
type GEMMShape struct {
	TransA, TransB bool
	M, N, K        int
	Batch          int
}

// Label renders the Fig. 6 identifier: "transA,transB,M,N,K[,batch]".
func (g GEMMShape) Label() string {
	t := func(b bool) string {
		if b {
			return "T"
		}
		return "N"
	}
	if g.Batch > 1 {
		return fmt.Sprintf("%s%s_%dx%dx%d_b%d", t(g.TransA), t(g.TransB), g.M, g.N, g.K, g.Batch)
	}
	return fmt.Sprintf("%s%s_%dx%dx%d", t(g.TransA), t(g.TransB), g.M, g.N, g.K)
}

// FLOPs returns the total multiply-add count across the batch.
func (g GEMMShape) FLOPs() int64 {
	return int64(g.Batch) * kernels.GEMMFLOPs(g.M, g.N, g.K)
}

// Bytes returns the algorithmic traffic across the batch at elemSize.
func (g GEMMShape) Bytes(elemSize int) int64 {
	return int64(g.Batch) * kernels.GEMMBytes(g.M, g.N, g.K, elemSize)
}

// Intensity returns FLOPs per byte at elemSize (Fig. 6's y-axis).
func (g GEMMShape) Intensity(elemSize int) float64 {
	return float64(g.FLOPs()) / float64(g.Bytes(elemSize))
}

// Op is one kernel launch of the iteration. Repeat compresses identical
// launches (e.g. the same per-layer kernel across N Transformer layers):
// FLOPs and Bytes are per launch.
type Op struct {
	Name     string
	Category profile.Category
	Phase    profile.Phase
	Class    LayerClass
	GEMM     *GEMMShape // nil for non-GEMM kernels
	FLOPs    int64
	Bytes    int64
	ElemSize int // byte size the traffic was accounted at
	Repeat   int
}

// TotalFLOPs returns FLOPs across all repeats.
func (o Op) TotalFLOPs() int64 { return o.FLOPs * int64(o.Repeat) }

// TotalBytes returns bytes across all repeats.
func (o Op) TotalBytes() int64 { return o.Bytes * int64(o.Repeat) }

// Intensity returns the op's FLOPs-per-byte ratio (Fig. 7's y-axis).
func (o Op) Intensity() float64 {
	if o.Bytes == 0 {
		return 0
	}
	return float64(o.FLOPs) / float64(o.Bytes)
}

// Workload identifies one experimental configuration, e.g. the paper's
// Ph1-B32-FP32.
type Workload struct {
	Name string
	Cfg  model.Config
	// B is the mini-batch size; SeqLen is the paper's n (128 for
	// pre-training Phase-1, 512 for Phase-2).
	B, SeqLen int
	Precision Precision
	// CheckpointEvery > 0 enables activation checkpointing with segments
	// of that many layers (Section 4).
	CheckpointEvery int

	// SliceWays > 1 builds the per-device graph of m-way Megatron-style
	// tensor slicing (Section 5.1): attention heads, projection output
	// features, and the FC intermediate dimension are split m ways;
	// dropout/residual/LayerNorm are replicated; LAMB updates 1/m of the
	// parameters. Communication is modeled separately by internal/dist.
	SliceWays int
	// Optimizer selects the update-phase ops; LAMB unless overridden.
	Optimizer OptimizerKind

	// Mode selects pre-training (default), fine-tuning, or inference.
	Mode RunMode

	// FusedAttention replaces the forward scale/mask/softmax kernel
	// sequence with one fused kernel (Section 6.1.1's software
	// optimization for the data-intensive attention-score phase).
	FusedAttention bool

	// MLMRows is how many token positions the masked-LM head runs over. 0
	// is every one of the B·n tokens — the paper's Table 2b output GEMM,
	// and what its measured stack computed; > 0 models a head that gathers
	// the positions the loss scores first (~15 % of them, what the real
	// engine does and the reference BERT code's max_predictions_per_seq),
	// as one more ablation beside FusedAttention and CheckpointEvery.
	MLMRows int
}

// mlmRows returns the number of rows the MLM head processes.
func (w Workload) mlmRows() int {
	if w.MLMRows > 0 {
		return w.MLMRows
	}
	return w.Tokens()
}

// OptimizerKind selects which optimizer's kernels the update phase emits.
type OptimizerKind int

const (
	// OptLAMB is the paper's default optimizer.
	OptLAMB OptimizerKind = iota
	// OptAdam is the fused multi-tensor Adam alternative (the paper's
	// footnote 2 baseline): no global-norm reduction, no trust-ratio
	// stage, a handful of multi-tensor launches.
	OptAdam
	// OptSGD is plain stochastic gradient descent: one read of gradient
	// and weight, one write, per parameter.
	OptSGD
	// OptNone omits the update phase (inference-style iteration).
	OptNone
)

// RunMode selects what kind of iteration the graph describes
// (Section 7's discussion of fine-tuning and inference).
type RunMode int

const (
	// Pretraining is a full FWD+BWD+update iteration with the MLM and
	// NSP output heads — the paper's primary subject.
	Pretraining RunMode = iota
	// FineTuning is a full training iteration with a task head instead
	// of the pre-training heads (modeled on SQuAD's span classifier,
	// which the paper notes is simpler and negligible).
	FineTuning
	// Inference is a forward pass only: no backprop, no optimizer.
	Inference
)

// String returns the mode's display name.
func (m RunMode) String() string {
	switch m {
	case FineTuning:
		return "finetune"
	case Inference:
		return "inference"
	default:
		return "pretrain"
	}
}

// Phase1 returns the paper's Phase-1 pre-training workload (n=128) at
// batch size b.
func Phase1(cfg model.Config, b int, p Precision) Workload {
	return Workload{
		Name:      fmt.Sprintf("Ph1-B%d-%s", b, p),
		Cfg:       cfg,
		B:         b,
		SeqLen:    128,
		Precision: p,
	}
}

// Phase2 returns the Phase-2 workload (n=512) at batch size b.
func Phase2(cfg model.Config, b int, p Precision) Workload {
	return Workload{
		Name:      fmt.Sprintf("Ph2-B%d-%s", b, p),
		Cfg:       cfg,
		B:         b,
		SeqLen:    512,
		Precision: p,
	}
}

// Tokens returns the tokens processed per iteration (B·n), the quantity
// forward/backward cost scales with (Section 3.3.1).
func (w Workload) Tokens() int { return w.B * w.SeqLen }

// Graph is the complete kernel list of one training iteration.
type Graph struct {
	Workload Workload
	Ops      []Op
}

// KernelCount returns the number of kernel launches including repeats.
func (g *Graph) KernelCount() int {
	n := 0
	for _, op := range g.Ops {
		n += op.Repeat
	}
	return n
}

// TotalFLOPs sums FLOPs over the whole iteration.
func (g *Graph) TotalFLOPs() int64 {
	var n int64
	for _, op := range g.Ops {
		n += op.TotalFLOPs()
	}
	return n
}

// TotalBytes sums algorithmic traffic over the whole iteration.
func (g *Graph) TotalBytes() int64 {
	var n int64
	for _, op := range g.Ops {
		n += op.TotalBytes()
	}
	return n
}

// GEMMs returns every distinct GEMM op of the graph (Fig. 6's population).
func (g *Graph) GEMMs() []Op {
	var out []Op
	for _, op := range g.Ops {
		if op.GEMM != nil {
			out = append(out, op)
		}
	}
	return out
}

// ParamTensor is one parameter tensor the optimizer updates.
type ParamTensor struct {
	Name string
	Size int
}

// ParamTensors enumerates every parameter tensor of the configuration in
// update order; LAMB launches its two stages once per tensor. The tied MLM
// decoder weight is represented once (under the embedding).
func ParamTensors(cfg model.Config) []ParamTensor {
	d, ff := cfg.DModel, cfg.DFF
	var ts []ParamTensor
	add := func(name string, size int) {
		ts = append(ts, ParamTensor{Name: name, Size: size})
	}
	add("embed.token", cfg.Vocab*d)
	add("embed.position", cfg.MaxPos*d)
	add("embed.segment", 2*d)
	add("embed.ln.gamma", d)
	add("embed.ln.beta", d)
	for i := 0; i < cfg.NumLayers; i++ {
		pre := fmt.Sprintf("encoder.%d.", i)
		for _, proj := range []string{"q", "k", "v", "o"} {
			add(pre+proj+".weight", d*d)
			add(pre+proj+".bias", d)
		}
		add(pre+"attn_ln.gamma", d)
		add(pre+"attn_ln.beta", d)
		add(pre+"fc1.weight", d*ff)
		add(pre+"fc1.bias", ff)
		add(pre+"fc2.weight", ff*d)
		add(pre+"fc2.bias", d)
		add(pre+"ff_ln.gamma", d)
		add(pre+"ff_ln.beta", d)
	}
	add("mlm.dense.weight", d*d)
	add("mlm.dense.bias", d)
	add("mlm.ln.gamma", d)
	add("mlm.ln.beta", d)
	add("mlm.decoder.bias", cfg.Vocab)
	add("nsp.pooler.weight", d*d)
	add("nsp.pooler.bias", d)
	add("nsp.classifier.weight", 2*d)
	add("nsp.classifier.bias", 2)
	return ts
}

// ParamGroups returns the per-layer LAMB update groups: the embedding
// tables, each Transformer layer's parameters, and the output heads. The
// optimizer launches one Stage-1 and one Stage-2 kernel per group
// (Section 2.4: the algorithm "is executed independently for every model
// layer, each accessing the corresponding layer's data").
func ParamGroups(cfg model.Config) []ParamTensor {
	d, ff := cfg.DModel, cfg.DFF
	perLayer := 4*(d*d+d) + (d*ff + ff) + (ff*d + d) + 4*d
	groups := []ParamTensor{
		{Name: "embedding", Size: (cfg.Vocab+cfg.MaxPos+2)*d + 2*d},
	}
	for i := 0; i < cfg.NumLayers; i++ {
		groups = append(groups, ParamTensor{Name: fmt.Sprintf("encoder.%d", i), Size: perLayer})
	}
	groups = append(groups, ParamTensor{
		Name: "heads",
		Size: (d*d + d) + 2*d + cfg.Vocab + (d*d + d) + (2*d + 2),
	})
	return groups
}
