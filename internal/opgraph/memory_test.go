package opgraph

import (
	"testing"

	"demystbert/internal/model"
)

func TestFootprintComponents(t *testing.T) {
	cfg := model.BERTLarge()
	w := Phase1(cfg, 32, FP32)
	f := Footprint(w)
	params := int64(cfg.ParamCount())
	if f.Weights != params*4 {
		t.Fatalf("weights %d, want %d", f.Weights, params*4)
	}
	if f.OptimizerState != 2*params*4 {
		t.Fatalf("optimizer state %d, want %d", f.OptimizerState, 2*params*4)
	}
	if f.Activations <= 0 || f.Total() <= f.Weights {
		t.Fatal("activations missing from footprint")
	}
}

func TestFootprintScale(t *testing.T) {
	// BERT-Large Ph1-B32-FP32 without checkpointing needs tens of GB of
	// activations — beyond a 32 GB device once weights+state are added —
	// which is exactly why checkpointing exists (Section 4).
	w := Phase1(model.BERTLarge(), 32, FP32)
	noCkpt := Footprint(w).Total()
	if noCkpt < 12e9 {
		t.Fatalf("BERT-Large B32 footprint %d implausibly small", noCkpt)
	}

	w.CheckpointEvery = 6
	ck := Footprint(w)
	if ck.Total() >= noCkpt {
		t.Fatal("checkpointing must reduce the footprint")
	}
	// Activations specifically shrink several-fold (√N checkpoints + one
	// live segment vs all N layers).
	full := Footprint(Phase1(model.BERTLarge(), 32, FP32))
	if ratio := float64(full.Activations) / float64(ck.Activations); ratio < 2.5 {
		t.Fatalf("checkpointing activation reduction only %.2fx", ratio)
	}
}

func TestCheckpointingEnablesLargerBatch(t *testing.T) {
	// The paper's stated purpose: checkpointing "enables training a large
	// model or a model with larger B on a single device". On a 32 GB
	// MI100, the max batch must grow when checkpointing is on.
	const capacity = 32e9
	w := Phase1(model.BERTLarge(), 1, FP32)
	plain := MaxBatchSize(w, capacity)
	w.CheckpointEvery = 6
	ck := MaxBatchSize(w, capacity)
	if ck <= plain {
		t.Fatalf("checkpointing must raise max batch: %d vs %d", ck, plain)
	}
	if plain < 1 {
		t.Fatalf("BERT-Large must fit at some batch size on 32 GB, got %d", plain)
	}
}

func TestMixedPrecisionShrinksActivations(t *testing.T) {
	fp32 := Footprint(Phase1(model.BERTLarge(), 32, FP32))
	mp := Footprint(Phase1(model.BERTLarge(), 32, Mixed))
	if mp.Activations >= fp32.Activations {
		t.Fatal("MP must halve activation storage")
	}
	// Optimizer state stays FP32-sized.
	if mp.OptimizerState != fp32.OptimizerState {
		t.Fatal("optimizer state must be precision-invariant")
	}
	// But MP adds the FP16 weight copy.
	if mp.Weights <= fp32.Weights {
		t.Fatal("MP keeps FP32 masters plus an FP16 working copy")
	}
}

func TestFootprintLinearInBatch(t *testing.T) {
	w4 := Footprint(Phase1(model.BERTLarge(), 4, FP32))
	w8 := Footprint(Phase1(model.BERTLarge(), 8, FP32))
	if w8.Activations != 2*w4.Activations {
		t.Fatalf("activations not linear in B: %d vs %d", w8.Activations, w4.Activations)
	}
	if w8.Weights != w4.Weights {
		t.Fatal("weights must not depend on B")
	}
}

func TestScaledFootprintShrinksResidentSet(t *testing.T) {
	cfg := model.BERTLarge()
	w := Phase1(cfg, 8, FP32)
	w.CheckpointEvery = 6
	full := Footprint(w)
	scaled := ScaledFootprint(w, MemScale{MicroB: 1, Shards: 8, SpillCkpts: true})

	params := int64(cfg.ParamCount())
	// Weights and gradients stay fully resident (grads accumulate
	// across micro-batches); optimizer state shrinks to one shard.
	if scaled.Weights != full.Weights || scaled.Gradients != full.Gradients {
		t.Fatal("weights/gradients must stay full-size under memory scaling")
	}
	if want := (2*params*4 + 7) / 8; scaled.OptimizerState != want {
		t.Fatalf("sharded optimizer state %d, want %d", scaled.OptimizerState, want)
	}
	// Activations shrink to the micro-batch, minus the spilled checkpoints.
	wMicro := w
	wMicro.B = 1
	micro := Footprint(wMicro)
	if scaled.Activations >= micro.Activations {
		t.Fatalf("spill must shrink activations below the micro-batch footprint: %d vs %d",
			scaled.Activations, micro.Activations)
	}
	if scaled.Activations <= 0 {
		t.Fatal("live segment must remain resident")
	}
	if scaled.Total() >= full.Total() {
		t.Fatal("memory scaling must reduce the resident total")
	}
}

func TestScaledFootprintIdentityWhenDisabled(t *testing.T) {
	w := Phase1(model.BERTLarge(), 8, FP32)
	w.CheckpointEvery = 6
	if ScaledFootprint(w, MemScale{}) != Footprint(w) {
		t.Fatal("zero-value MemScale must be the plain footprint")
	}
}

// TestScaledFootprintScalesScoredRows: a micro-batch's MLM head runs over
// its share of the batch's scored rows, rounded up, not over all of them.
func TestScaledFootprintScalesScoredRows(t *testing.T) {
	w := Phase1(model.BERTLarge(), 8, FP32)
	w.MLMRows = 153
	micro := w
	micro.B, micro.MLMRows = 2, 39 // ceil(153 · 2/8)
	if got, want := ScaledFootprint(w, MemScale{MicroB: 2}), Footprint(micro); got != want {
		t.Fatalf("micro-batch footprint %+v, want %+v", got, want)
	}
}

func TestMaxBatchSizeZeroWhenTooSmall(t *testing.T) {
	if got := MaxBatchSize(Phase1(model.BERTLarge(), 1, FP32), 1<<20); got != 0 {
		t.Fatalf("1 MiB device fits batch %d?", got)
	}
}
