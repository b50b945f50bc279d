package model

import (
	"math"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/obs"
	"demystbert/internal/optim"
)

// TestStepAccumBitwiseMatchesFullBatch pins the gradient-accumulation
// contract: with dropout off and a forced GEMM path, StepAccum(B/k, k)
// produces a loss and parameter gradients bitwise-identical to a single
// full-batch Step(B), across GEMM engines and with checkpointing on and
// off. This holds because every cross-token reduction in the engine is a
// destination-seeded fold in token order. The second batch's second
// sequence scores no position, so at k = 4 one micro-batch has nothing to
// gather and skips the MLM head.
func TestStepAccumBitwiseMatchesFullBatch(t *testing.T) {
	cfg := Tiny()
	cfg.DropProb = 0
	const b, n, seed = 4, 16, 5
	gen := tinyBatch(cfg, b, n, 11)
	hole := *gen
	hole.MLMTargets = append([]int(nil), gen.MLMTargets...)
	for i := n; i < 2*n; i++ {
		hole.MLMTargets[i] = kernels.IgnoreIndex
	}

	for _, path := range []kernels.GEMMPath{
		kernels.GEMMPathNaive, kernels.GEMMPathBlocked, kernels.GEMMPathFused,
	} {
		for _, ckpt := range []int{0, 1} {
			for _, accumSteps := range []int{2, 4} {
				for _, batch := range []*data.Batch{gen, &hole} {
					full, err := New(cfg, seed)
					if err != nil {
						t.Fatal(err)
					}
					accum, err := New(cfg, seed)
					if err != nil {
						t.Fatal(err)
					}
					full.CheckpointEvery, accum.CheckpointEvery = ckpt, ckpt

					ctxFull, ctxAccum := nn.NewCtx(9), nn.NewCtx(9)
					ctxFull.Route, ctxAccum.Route = path, path
					lossFull := full.Step(ctxFull, batch)
					lossAccum := accum.StepAccum(ctxAccum, batch, accumSteps)

					if math.Float64bits(lossFull) != math.Float64bits(lossAccum) {
						t.Errorf("path=%v ckpt=%d k=%d hole=%v: loss %v (full) != %v (accum)",
							path, ckpt, accumSteps, batch == &hole, lossFull, lossAccum)
					}
					fp, ap := full.Params(), accum.Params()
					for i := range fp {
						fg, ag := fp[i].Grad.Data(), ap[i].Grad.Data()
						for j := range fg {
							if math.Float32bits(fg[j]) != math.Float32bits(ag[j]) {
								t.Fatalf("path=%v ckpt=%d k=%d hole=%v: grad %s[%d] = %v (full) != %v (accum)",
									path, ckpt, accumSteps, batch == &hole, fp[i].Name, j, fg[j], ag[j])
							}
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

// packCounters reads the kernels' pack-cache counters: lookups that built
// nothing, packs built (cold or because the generation moved), and hits.
func packCounters(t *testing.T) (deferred, built, hits int64) {
	t.Helper()
	read := func(name string) int64 {
		m, ok := obs.Default.Find(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		return int64(m.Value)
	}
	return read("kernels_pack_cache_deferred_total"),
		read("kernels_pack_cache_misses_total") + read("kernels_pack_cache_rebuilds_total"),
		read("kernels_pack_cache_hits_total")
}

// TestTrainingPacksWeightsOnReuseOnly pins what a training iteration asks
// of the pack cache: a plain Step uses each orientation of each Linear
// weight once per generation and builds no pack at all, and a 4-way
// StepAccum packs per call in its first micro-batch, builds each pack
// exactly once in its second, and hits it in the other two.
func TestTrainingPacksWeightsOnReuseOnly(t *testing.T) {
	cfg := Tiny()
	m, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch := tinyBatch(cfg, 4, 32, 2)
	for s := 0; s < batch.B; s++ {
		if batch.Slice(s, s+1).MaskedCount() == 0 {
			t.Fatalf("sequence %d scores no position: its micro-batch would skip the MLM head's lookups", s)
		}
	}
	// Forward and dX orientations of the six Linears of each encoder layer
	// plus MLM dense, the tied decoder, the pooler and the NSP classifier.
	uses := int64(2 * (6*cfg.NumLayers + 4))
	ctx := nn.NewCtx(1)
	opt := optim.NewSGD(0.01)

	for i := 0; i < 2; i++ {
		d0, b0, h0 := packCounters(t)
		m.Step(ctx, batch)
		d1, b1, h1 := packCounters(t)
		if d1-d0 != uses || b1 != b0 || h1 != h0 {
			t.Fatalf("Step %d: %d deferred, %d built, %d hits; want %d, 0, 0", i, d1-d0, b1-b0, h1-h0, uses)
		}
		opt.Step(ctx, m.Params())
		m.ZeroGrads()
	}

	d0, b0, h0 := packCounters(t)
	m.StepAccum(ctx, batch, 4)
	d1, b1, h1 := packCounters(t)
	if d1-d0 != uses || b1-b0 != uses || h1-h0 != 2*uses {
		t.Fatalf("StepAccum(4): %d deferred, %d built, %d hits; want %d, %d, %d", d1-d0, b1-b0, h1-h0, uses, uses, 2*uses)
	}
}
