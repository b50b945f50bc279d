package opgraph

// Activation-memory model: the capacity pressure that motivates
// activation checkpointing (Section 4: it "reduces a model's memory
// capacity requirements and enables training a large model or a model
// with larger B on a single device"). The model counts every tensor that
// must stay resident between the forward pass and the backward kernel
// that consumes it.

// MemoryFootprint is the modeled device-memory demand of one training
// iteration, in bytes.
type MemoryFootprint struct {
	// Weights is the parameter storage (plus FP32 master copies under
	// mixed precision).
	Weights int64
	// Gradients is the parameter-gradient storage.
	Gradients int64
	// OptimizerState is LAMB's momentum + velocity (always FP32).
	OptimizerState int64
	// Activations is the storage for forward activations retained for
	// backprop (reduced to checkpoints + one live segment when
	// checkpointing).
	Activations int64
}

// Total sums all components.
func (m MemoryFootprint) Total() int64 {
	return m.Weights + m.Gradients + m.OptimizerState + m.Activations
}

// activationsPerLayer returns the bytes of forward state one Transformer
// layer must retain for its backward pass: the inputs of every GEMM and
// element-wise gradient kernel.
func activationsPerLayer(w Workload) int64 {
	cfg := w.Cfg
	es := int64(w.Precision.ElemSize())
	nB := int64(w.Tokens())
	d, ff := int64(cfg.DModel), int64(cfg.DFF)
	n := int64(w.SeqLen)
	scores := int64(w.B) * int64(cfg.Heads) * n * n

	var bytes int64
	// Attention: layer input (shared by Q/K/V), the three projections,
	// softmax output, post-dropout probabilities (mask), context, and the
	// projection output.
	bytes += nB * d * es     // layer input
	bytes += 3 * nB * d * es // Q, K, V
	bytes += 2 * scores * es // softmax output + dropout mask
	bytes += 2 * nB * d * es // attention context + projection output
	// Attention block: dropout mask, residual sum (LN input), LN output.
	bytes += 3 * nB * d * es
	// FC: FC-1 output (GeLU input), GeLU output, FC-2 output.
	bytes += 2*nB*ff*es + nB*d*es
	// FC block: dropout mask, residual sum, LN output.
	bytes += 3 * nB * d * es
	return bytes
}

// Footprint models the iteration's memory demand. With checkpointing,
// only the √N-spaced checkpoint activations persist across the forward
// pass, plus one segment's full activations live during its recompute.
func Footprint(w Workload) MemoryFootprint {
	cfg := w.Cfg
	params := int64(cfg.ParamCount())
	const fp32 = 4
	es := int64(w.Precision.ElemSize())

	f := MemoryFootprint{
		Weights:        params * fp32,
		Gradients:      params * es,
		OptimizerState: 2 * params * fp32, // m and v
	}
	if w.Precision == Mixed {
		// FP16 working copy alongside the FP32 master weights.
		f.Weights += params * es
	}

	perLayer := activationsPerLayer(w)
	layers := int64(cfg.NumLayers)
	if w.CheckpointEvery > 0 {
		segments := (layers + int64(w.CheckpointEvery) - 1) / int64(w.CheckpointEvery)
		ckptTensor := int64(w.Tokens()) * int64(cfg.DModel) * es
		f.Activations = segments*ckptTensor + int64(w.CheckpointEvery)*perLayer
	} else {
		f.Activations = layers * perLayer
	}

	// Embedding and output-layer activations; the MLM logits dominate.
	nB := int64(w.Tokens())
	f.Activations += nB * int64(cfg.DModel) * es // embedding output
	if w.Mode == Pretraining {
		f.Activations += int64(w.mlmRows()) * int64(cfg.Vocab) * es // MLM logits/probs
	}
	return f
}

// MemScale describes the memory-scaling techniques internal/memscale
// applies to run a large model on a small machine: gradient accumulation
// (forward/backward at a micro-batch, optimizer once per global batch),
// virtual optimizer-state sharding (one shard of m/v resident at a
// time), and activation spill (checkpoint tensors live in a disk arena
// instead of the heap).
type MemScale struct {
	// MicroB is the micro-batch the forward/backward actually executes;
	// 0 keeps the workload's full B (no accumulation).
	MicroB int
	// Shards is the virtual optimizer-state shard count; values <= 1
	// keep all optimizer state resident.
	Shards int
	// SpillCkpts moves the checkpoint activations (the √N-spaced layer
	// inputs) out of the resident set. Only meaningful with
	// CheckpointEvery > 0.
	SpillCkpts bool
}

// ScaledFootprint models the *resident* memory demand of a
// memory-scaled iteration — the number a measured peak RSS should be
// compared against. Accumulation shrinks activations to the micro-batch
// (gradients stay full-size: they accumulate across micro-batches),
// sharding divides the optimizer state, and spill subtracts the
// checkpoint tensors that now live on disk.
func ScaledFootprint(w Workload, s MemScale) MemoryFootprint {
	if s.MicroB > 0 {
		// A micro-batch scores its share of the batch's MLM rows.
		w.MLMRows = (w.MLMRows*s.MicroB + w.B - 1) / w.B
		w.B = s.MicroB
	}
	f := Footprint(w)
	if s.Shards > 1 {
		k := int64(s.Shards)
		f.OptimizerState = (f.OptimizerState + k - 1) / k
	}
	if s.SpillCkpts && w.CheckpointEvery > 0 {
		layers := int64(w.Cfg.NumLayers)
		segments := (layers + int64(w.CheckpointEvery) - 1) / int64(w.CheckpointEvery)
		ckptTensor := int64(w.Tokens()) * int64(w.Cfg.DModel) * int64(w.Precision.ElemSize())
		f.Activations -= segments * ckptTensor
	}
	return f
}

// MaxBatchSize returns the largest mini-batch (in the workload's other
// parameters) whose footprint fits in capacity bytes, or 0 if none does.
func MaxBatchSize(w Workload, capacity int64) int {
	best := 0
	for b := 1; b <= 4096; b *= 2 {
		w.B = b
		if Footprint(w).Total() <= capacity {
			best = b
		} else {
			break
		}
	}
	return best
}
