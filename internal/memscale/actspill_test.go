package memscale

import (
	"math"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/model"
	"demystbert/internal/nn"
)

// blockedCtx is a training context on the forced blocked GEMM route, so
// every product runs the engine whatever its size.
func blockedCtx() *nn.Ctx {
	ctx := nn.NewCtx(7)
	ctx.Route = kernels.GEMMPathBlocked
	return ctx
}

// TestActSpillCheckpointedStepBitwise pins the activation-spill path: a
// checkpointed training step whose segment inputs stream through the
// arena must produce bitwise the loss and gradients of the same step with
// heap-resident checkpoints — the spilled bytes replay exactly.
func TestActSpillCheckpointedStepBitwise(t *testing.T) {
	cfg := model.Tiny()
	cfg.NumLayers = 4
	cfg.DropProb = 0 // spill replays data, not RNG streams
	const seed = 21

	step := func(spill bool) (float64, *model.BERT) {
		m, err := model.New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		m.CheckpointEvery = 2
		if spill {
			a, err := NewArena(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close() })
			m.CkptSpill = NewActSpill(a)
		}
		b := data.NewGenerator(cfg.Vocab, 0.15, 3).Next(2, 16)
		loss := m.Step(blockedCtx(), b)
		return loss, m
	}

	lossPlain, mPlain := step(false)
	lossSpill, mSpill := step(true)
	if math.Float64bits(lossPlain) != math.Float64bits(lossSpill) {
		t.Fatalf("loss diverged: plain %v, spilled %v", lossPlain, lossSpill)
	}
	pp, sp := mPlain.Params(), mSpill.Params()
	for i := range pp {
		pg, sg := pp[i].Grad.Data(), sp[i].Grad.Data()
		for j := range pg {
			if math.Float32bits(pg[j]) != math.Float32bits(sg[j]) {
				t.Fatalf("grad %s[%d]: plain %v, spilled %v", pp[i].Name, j, pg[j], sg[j])
			}
		}
	}
}

// TestActSpillAcrossAccumulation exercises the spiller under StepAccum:
// each micro-batch re-spills the same checkpoint indices, and the
// accumulated gradients must still match the full-batch step bitwise.
func TestActSpillAcrossAccumulation(t *testing.T) {
	cfg := model.Tiny()
	cfg.NumLayers = 4
	cfg.DropProb = 0
	const seed = 22

	run := func(accum int) (float64, *model.BERT) {
		m, err := model.New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		m.CheckpointEvery = 2
		a, err := NewArena(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		m.CkptSpill = NewActSpill(a)
		b := data.NewGenerator(cfg.Vocab, 0.15, 4).Next(4, 16)
		loss := m.StepAccum(blockedCtx(), b, accum)
		return loss, m
	}

	lossFull, mFull := run(1)
	lossAccum, mAccum := run(2)
	if math.Float64bits(lossFull) != math.Float64bits(lossAccum) {
		t.Fatalf("loss diverged: full %v, accum %v", lossFull, lossAccum)
	}
	fp, ap := mFull.Params(), mAccum.Params()
	for i := range fp {
		fg, ag := fp[i].Grad.Data(), ap[i].Grad.Data()
		for j := range fg {
			if math.Float32bits(fg[j]) != math.Float32bits(ag[j]) {
				t.Fatalf("grad %s[%d]: full %v, accum %v", fp[i].Name, j, fg[j], ag[j])
			}
		}
	}
}

func TestActSpillRestoreUnknownIndexPanics(t *testing.T) {
	a, err := NewArena(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	s := NewActSpill(a)
	defer func() {
		if recover() == nil {
			t.Fatal("Restore of never-spilled index did not panic")
		}
	}()
	s.Restore(3, make([]float32, 4))
}
