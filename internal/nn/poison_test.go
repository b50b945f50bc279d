package nn_test

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/distnet"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/tensor"
)

// run is what one training run leaves to compare: every step's loss and,
// per step, every value the step's caller can see — parameter gradients,
// and for the sliced layer its output and input gradient.
type run struct {
	losses []float64
	values [][]float32
}

func (r *run) record(loss float64, ts ...[]float32) {
	r.losses = append(r.losses, loss)
	for _, t := range ts {
		r.values = append(r.values, append([]float32(nil), t...))
	}
}

func (r *run) recordGrads(loss float64, params []*nn.Param) {
	ts := make([][]float32, len(params))
	for i, p := range params {
		ts[i] = p.Grad.Data()
	}
	r.record(loss, ts...)
}

// memSpill is a CkptSpiller that keeps checkpoints in a map.
type memSpill map[int][]float32

func (s memSpill) Spill(idx int, d []float32)   { s[idx] = append(s[idx][:0], d...) }
func (s memSpill) Restore(idx int, d []float32) { copy(d, s[idx]) }

// pretrain runs three pre-training steps of cfg — each a fresh batch, so
// the MLM head's row count and with it the workspace's slot sizes change —
// with a LAMB update between them.
func pretrain(t *testing.T, poison bool, cfg model.Config, setup func(*model.BERT, *nn.Ctx), step func(*model.BERT, *nn.Ctx, *data.Batch) float64) run {
	t.Helper()
	m, err := model.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := nn.NewCtx(9)
	setup(m, ctx)
	if poison {
		nn.PoisonWorkspace(ctx)
	}
	gen := data.NewGenerator(cfg.Vocab, 0.15, 21)
	opt := optim.NewLAMB(0.01)
	var r run
	for i := 0; i < 3; i++ {
		loss := step(m, ctx, gen.Next(4, 16))
		r.recordGrads(loss, m.Params())
		opt.Step(ctx, m.Params())
		m.ZeroGrads()
	}
	return r
}

func plainStep(m *model.BERT, ctx *nn.Ctx, b *data.Batch) float64 { return m.Step(ctx, b) }

// TestWorkspacePoisonBitwise runs each training mode twice — once with
// every workspace slot filled with NaN at each reset, once without — and
// requires bitwise the same losses and gradients. A producer that leaves
// an element of its uninitialised draw unwritten, a consumer that
// accumulates into one, or a tensor read after the next forward's reset
// reads NaN in the poisoned run, and the comparison fails.
func TestWorkspacePoisonBitwise(t *testing.T) {
	noSetup := func(*model.BERT, *nn.Ctx) {}
	tiny, noDrop := model.Tiny(), model.Tiny()
	noDrop.DropProb = 0 // the fused Add&Norm tails save their LayerNorm inputs into draws
	modes := []struct {
		name string
		run  func(t *testing.T, poison bool) run
	}{
		{"fp32", func(t *testing.T, poison bool) run {
			return pretrain(t, poison, tiny, noSetup, plainStep)
		}},
		{"fp32 no dropout", func(t *testing.T, poison bool) run {
			return pretrain(t, poison, noDrop, noSetup, plainStep)
		}},
		{"mixed precision", func(t *testing.T, poison bool) run {
			return pretrain(t, poison, tiny, func(_ *model.BERT, c *nn.Ctx) {
				c.MixedPrecision, c.LossScale = true, 8
			}, plainStep)
		}},
		{"checkpoint k=1", func(t *testing.T, poison bool) run {
			return pretrain(t, poison, tiny, func(m *model.BERT, _ *nn.Ctx) { m.CheckpointEvery = 1 }, plainStep)
		}},
		{"checkpoint k=1 spilled", func(t *testing.T, poison bool) run {
			return pretrain(t, poison, tiny, func(m *model.BERT, _ *nn.Ctx) {
				m.CheckpointEvery, m.CkptSpill = 1, memSpill{}
			}, plainStep)
		}},
		{"StepAccum", func(t *testing.T, poison bool) run {
			return pretrain(t, poison, tiny, noSetup, func(m *model.BERT, c *nn.Ctx, b *data.Batch) float64 {
				return m.StepAccum(c, b, 2)
			})
		}},
		{"FineTuner", fineTune},
		{"sliced m=2", slicedSteps},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			want, got := mode.run(t, false), mode.run(t, true)
			for i := range want.losses {
				if math.Float64bits(got.losses[i]) != math.Float64bits(want.losses[i]) {
					t.Fatalf("step %d: loss %v with the workspace poisoned, %v without", i, got.losses[i], want.losses[i])
				}
			}
			for i := range want.values {
				for j := range want.values[i] {
					if math.Float32bits(got.values[i][j]) != math.Float32bits(want.values[i][j]) {
						t.Fatalf("value %d[%d]: %v with the workspace poisoned, %v without", i, j, got.values[i][j], want.values[i][j])
					}
				}
			}
		})
	}
}

// TestEvalWorkspacePoisonBitwise: the evaluation forward of a four-layer
// model releases the slots of layer i−2 before every layer i from the
// third on and draws into them. With every slot NaN-poisoned at each reset
// and each release, it gives bitwise the encoder rows and predictions it
// gives without, twice in a row: a layer that read a slot released before
// it ran — its own input, had the release reached back one layer instead of
// two — would read NaN.
func TestEvalWorkspacePoisonBitwise(t *testing.T) {
	cfg := model.Tiny()
	cfg.NumLayers = 4
	m, err := model.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	var b data.Ragged
	var positions [][]int
	for s, ln := range []int{cfg.MaxPos, 3, 17, 1} {
		toks := make([]int, ln)
		toks[0] = data.ClsID
		for i := 1; i < ln; i++ {
			toks[i] = data.FirstWordID + (s*131+i*17)%(cfg.Vocab-data.FirstWordID)
		}
		var ps []int
		if ln > 1 {
			toks[ln-1] = data.MaskID
			ps = []int{ln - 1}
		}
		b.Append(toks, nil)
		positions = append(positions, ps)
	}
	evaluate := func(poison bool) ([]float32, [][]int) {
		ctx := &nn.Ctx{}
		if poison {
			nn.PoisonWorkspace(ctx)
		}
		var rows []float32
		var preds [][]int
		for range 2 {
			rows = append(rows, m.EncodeEval(ctx, &b).Data()...)
			preds = append(preds, m.PredictMaskedAt(ctx, &b, positions)...)
		}
		return rows, preds
	}
	wantRows, wantPreds := evaluate(false)
	gotRows, gotPreds := evaluate(true)
	for i := range wantRows {
		if math.Float32bits(gotRows[i]) != math.Float32bits(wantRows[i]) {
			t.Fatalf("encoder row element %d: %v with the workspace poisoned, %v without", i, gotRows[i], wantRows[i])
		}
	}
	for s := range wantPreds {
		if !slices.Equal(gotPreds[s], wantPreds[s]) {
			t.Fatalf("sequence %d: predictions %v with the workspace poisoned, %v without", s, gotPreds[s], wantPreds[s])
		}
	}
}

func fineTune(t *testing.T, poison bool) run {
	cfg := model.Tiny()
	base, err := model.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := model.NewFineTuner(base, 4)
	ctx := nn.NewCtx(9)
	if poison {
		nn.PoisonWorkspace(ctx)
	}
	gen := data.NewGenerator(cfg.Vocab, 0.15, 22)
	opt := optim.NewLAMB(0.01)
	var r run
	for i := 0; i < 3; i++ {
		loss := f.Step(ctx, gen.NextQA(3, 16))
		r.recordGrads(loss, f.Params())
		opt.Step(ctx, f.Params())
		f.ZeroGrads()
	}
	return r
}

// slicedSteps runs two steps of a 2-way tensor-sliced encoder layer, one
// goroutine and one context per rank, resetting each rank's workspace per
// step as a caller that drives layers directly does.
func slicedSteps(t *testing.T, poison bool) run {
	const world, b, n, d = 2, 2, 5, 16
	r := tensor.NewRNG(1)
	ref := nn.NewEncoderLayer("ref", d, 4, 32, 0, r)
	for _, l := range []*nn.Linear{ref.Attn.Wq, ref.Attn.Wk, ref.Attn.Wv, ref.Attn.Wo, ref.FF.FC1, ref.FF.FC2} {
		l.B.Value.FillUniform(r, -0.1, 0.1)
	}
	groups, err := distnet.JoinLoopback(world, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	runs := make([]run, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank, g := range groups {
		wg.Add(1)
		go func(rank int, g *distnet.Group) {
			defer wg.Done()
			layer, err := distnet.NewSlicedLayer(g, ref)
			if err != nil {
				errs[rank] = err
				return
			}
			ctx := nn.NewCtx(9)
			if poison {
				nn.PoisonWorkspace(ctx)
			}
			xr := tensor.NewRNG(5)
			for step := 0; step < 2; step++ {
				x, dY := tensor.New(b*n, d), tensor.New(b*n, d)
				x.FillUniform(xr, -1, 1)
				dY.FillUniform(xr, -1, 1)
				ctx.ResetWorkspace()
				y, err := layer.Forward(ctx, x, b, n)
				if err != nil {
					errs[rank] = err
					return
				}
				dX, err := layer.Backward(ctx, dY)
				if err != nil {
					errs[rank] = err
					return
				}
				runs[rank].record(0, y.Data(), dX.Data())
				runs[rank].recordGrads(0, layer.Params())
			}
		}(rank, g)
	}
	wg.Wait()
	var all run
	for rank := range runs {
		if errs[rank] != nil {
			t.Fatalf("rank %d: %v", rank, errs[rank])
		}
		all.losses = append(all.losses, runs[rank].losses...)
		all.values = append(all.values, runs[rank].values...)
	}
	return all
}
