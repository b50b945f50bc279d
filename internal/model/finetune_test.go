package model

import (
	"math"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
)

func newFineTuner(t *testing.T, cfg Config) *FineTuner {
	t.Helper()
	base, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewFineTuner(base, 2)
}

func TestFineTunerInitialLossNearChance(t *testing.T) {
	cfg := Tiny()
	cfg.DropProb = 0
	f := newFineTuner(t, cfg)
	b := data.NewGenerator(cfg.Vocab, 0.15, 1).NextQA(2, 16)
	loss := f.Forward(nn.NewCtx(1), b)
	chance := math.Log(16) // uniform over n positions
	if loss < 0.5*chance || loss > 1.5*chance {
		t.Fatalf("initial span loss %v far from chance %v", loss, chance)
	}
}

func TestFineTuningReducesLoss(t *testing.T) {
	cfg := Tiny()
	cfg.DropProb = 0
	f := newFineTuner(t, cfg)
	ctx := nn.NewCtx(1)
	b := data.NewGenerator(cfg.Vocab, 0.15, 1).NextQA(2, 16)

	const lr = 0.05
	first := f.Step(ctx, b)
	for i := 0; i < 12; i++ {
		for _, p := range f.Params() {
			v, g := p.Value.Data(), p.Grad.Data()
			for j := range v {
				v[j] -= lr * g[j]
			}
		}
		f.ZeroGrads()
		f.Step(ctx, b)
	}
	f.ZeroGrads()
	last := f.Forward(ctx, b)
	if last >= first*0.7 {
		t.Fatalf("fine-tuning loss did not drop: %v -> %v", first, last)
	}
}

func TestFineTunerSharesEncoderWithBase(t *testing.T) {
	cfg := Tiny()
	f := newFineTuner(t, cfg)
	b := data.NewGenerator(cfg.Vocab, 0.15, 1).NextQA(2, 16)
	f.Step(nn.NewCtx(1), b)
	// Encoder weights must have received gradient through the span head.
	got := false
	for _, p := range f.Base.Layers[0].Attn.Wq.W.Grad.Data() {
		if p != 0 {
			got = true
			break
		}
	}
	if !got {
		t.Fatal("encoder received no gradient during fine-tuning")
	}
	// Pre-training heads are excluded from fine-tuning parameters.
	for _, p := range f.Params() {
		if p == f.Base.Pooler.W || p == f.Base.MLMDense.W {
			t.Fatal("pre-training head parameters leaked into fine-tuning")
		}
	}
}

func TestFineTunerOutputLayerIsNegligible(t *testing.T) {
	// Section 7: the SQuAD head is simpler than the pre-training tasks;
	// the Output class share of a fine-tuning profile must be tiny. Shares
	// are of profiled FLOPs, which the shapes fix: wall-time shares of a
	// step this small swing with machine load.
	cfg := Tiny()
	f := newFineTuner(t, cfg)
	ctx := nn.NewCtx(1)
	f.Step(ctx, data.NewGenerator(cfg.Vocab, 0.15, 1).NextQA(2, 16))
	sum := ctx.Prof.Summarize()
	var gemm int64
	for c, st := range sum.ByCategory {
		if c.IsGEMM() {
			gemm += st.FLOPs
		}
	}
	total := float64(sum.Total.FLOPs)
	if s := float64(sum.ByCategory[profile.CatOutput].FLOPs) / total; s > 0.10 {
		t.Fatalf("fine-tuning output-head FLOP share %.3f should be negligible", s)
	}
	// Transformer kernels (GEMM categories) still dominate.
	if s := float64(gemm) / total; s < 0.3 {
		t.Fatalf("GEMM FLOP share %.3f; transformer work should dominate fine-tuning", s)
	}
}

func TestFineTunerMemorizesSpan(t *testing.T) {
	cfg := Tiny()
	cfg.DropProb = 0
	f := newFineTuner(t, cfg)
	ctx := nn.NewCtx(1)
	b := data.NewGenerator(cfg.Vocab, 0.15, 1).NextQA(1, 16)

	const lr = 0.05
	for i := 0; i < 60; i++ {
		f.Step(ctx, b)
		for _, p := range f.Params() {
			v, g := p.Value.Data(), p.Grad.Data()
			for j := range v {
				v[j] -= lr * g[j]
			}
		}
		f.ZeroGrads()
	}
	starts, ends := f.PredictSpan(ctx, b)
	if starts[0] != b.StartPos[0] || ends[0] != b.EndPos[0] {
		t.Fatalf("failed to memorize span: predicted (%d,%d), want (%d,%d)",
			starts[0], ends[0], b.StartPos[0], b.EndPos[0])
	}
}

func TestFineTunerBackwardBeforeForwardPanics(t *testing.T) {
	f := newFineTuner(t, Tiny())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Backward(nn.NewCtx(1))
}

func TestPredictMaskedReturnsMaskedPositionsOnly(t *testing.T) {
	cfg := Tiny()
	m, _ := New(cfg, 1)
	gen := data.NewGenerator(cfg.Vocab, 0.15, 3)
	b := gen.Next(2, 16)
	preds := m.PredictMasked(nn.NewCtx(1), b)
	if len(preds) != b.MaskedCount() {
		t.Fatalf("got %d predictions, want %d", len(preds), b.MaskedCount())
	}
	for pos, id := range preds {
		if b.MLMTargets[pos] == -1 {
			t.Fatalf("prediction at unmasked position %d", pos)
		}
		if id < 0 || id >= cfg.Vocab {
			t.Fatalf("predicted id %d out of vocab", id)
		}
	}
}

func TestQABatchStructure(t *testing.T) {
	g := data.NewGenerator(500, 0.15, 1)
	b := g.NextQA(4, 24)
	for s := 0; s < 4; s++ {
		if b.Tokens[s*24] != data.ClsID {
			t.Fatal("QA sequence must start with CLS")
		}
		if b.StartPos[s] > b.EndPos[s] || b.EndPos[s] >= 24 {
			t.Fatalf("invalid span (%d, %d)", b.StartPos[s], b.EndPos[s])
		}
		// Span must lie in the context (segment 1).
		if b.Segments[s*24+b.StartPos[s]] != 1 {
			t.Fatal("answer span must lie inside the context segment")
		}
	}
}
