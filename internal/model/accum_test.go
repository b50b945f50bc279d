package model

import (
	"math"
	"testing"

	"demystbert/internal/kernels"
	"demystbert/internal/nn"
)

// TestStepAccumBitwiseMatchesFullBatch pins the gradient-accumulation
// contract: with dropout off and a forced GEMM path, StepAccum(B/k, k)
// produces a loss and parameter gradients bitwise-identical to a single
// full-batch Step(B), across GEMM engines and with checkpointing on and
// off. This holds because every cross-token reduction in the engine is a
// destination-seeded fold in token order.
func TestStepAccumBitwiseMatchesFullBatch(t *testing.T) {
	cfg := Tiny()
	cfg.DropProb = 0
	const b, n, seed = 4, 16, 5
	batch := tinyBatch(cfg, b, n, 11)

	for _, path := range []kernels.GEMMPath{
		kernels.GEMMPathNaive, kernels.GEMMPathBlocked, kernels.GEMMPathFused,
	} {
		for _, ckpt := range []int{0, 1} {
			for _, accumSteps := range []int{2, 4} {
				full, err := New(cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				accum, err := New(cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				full.CheckpointEvery, accum.CheckpointEvery = ckpt, ckpt

				old := kernels.SetGEMMPath(path)
				lossFull := full.Step(nn.NewCtx(9), batch)
				lossAccum := accum.StepAccum(nn.NewCtx(9), batch, accumSteps)
				kernels.SetGEMMPath(old)

				if math.Float64bits(lossFull) != math.Float64bits(lossAccum) {
					t.Errorf("path=%v ckpt=%d k=%d: loss %v (full) != %v (accum)",
						path, ckpt, accumSteps, lossFull, lossAccum)
				}
				fp, ap := full.Params(), accum.Params()
				for i := range fp {
					fg, ag := fp[i].Grad.Data(), ap[i].Grad.Data()
					for j := range fg {
						if math.Float32bits(fg[j]) != math.Float32bits(ag[j]) {
							t.Fatalf("path=%v ckpt=%d k=%d: grad %s[%d] = %v (full) != %v (accum)",
								path, ckpt, accumSteps, fp[i].Name, j, fg[j], ag[j])
						}
					}
				}
			}
		}
	}
}

// TestAccumHotLoopAllocs guards the per-micro-step additions of
// StepAccum over a plain Step: batch slicing must stay a zero-copy view
// (a Batch header plus a mask Tensor header), never a per-element copy —
// an 8-way accumulated BERT-Large step takes this path every micro-batch
// while running right under GOMEMLIMIT.
func TestAccumHotLoopAllocs(t *testing.T) {
	cfg := Tiny()
	batch := tinyBatch(cfg, 4, 16, 11)
	allocs := testing.AllocsPerRun(200, func() {
		_ = batch.Slice(1, 3)
	})
	if allocs > 4 {
		t.Fatalf("Batch.Slice allocates %.0f objects per call, want view headers only (<=4)", allocs)
	}
}

// TestStepAccumFiresGradHookOnLastMicroOnly pins the GradHook contract
// under accumulation: the hook must fire exactly one full group sequence,
// during the final micro-batch, when gradients are actually final.
func TestStepAccumFiresGradHookOnLastMicroOnly(t *testing.T) {
	cfg := Tiny()
	cfg.DropProb = 0
	m, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	m.GradHook = func(group int) { fired = append(fired, group) }
	m.StepAccum(nn.NewCtx(1), tinyBatch(cfg, 4, 16, 2), 2)
	want := 2 + len(m.Layers) // heads + per-layer + embedding
	if len(fired) != want {
		t.Fatalf("GradHook fired %d times (%v), want %d (one full sequence)", len(fired), fired, want)
	}
	for i, g := range fired {
		if g != i {
			t.Fatalf("GradHook sequence %v, want 0..%d in order", fired, want-1)
		}
	}
}
