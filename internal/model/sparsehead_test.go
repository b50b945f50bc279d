package model

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// denseStep is the oracle for the gathered MLM head: one Step with the head
// this package ran before — dense → GeLU → LN → decoder → softmax-xent over
// all B·n rows, the loss ignoring the unscored ones, backward the same in
// reverse. It returns the loss and the gradient with respect to the encoder
// output, and leaves every parameter gradient accumulated on m.
func denseStep(m *BERT, ctx *nn.Ctx, b *data.Batch) (float64, *tensor.Tensor) {
	cfg := m.Config
	seq := m.Embed.Forward(ctx, b.Tokens, b.Segments, b.B, b.N)
	for _, layer := range m.Layers {
		seq = layer.Forward(ctx, seq, b.B, b.N, b.Mask)
	}

	// MLM head over every position.
	x := m.MLMDense.Forward(ctx, seq)
	x = m.MLMAct.Forward(ctx, x)
	x = m.MLMLN.Forward(ctx, x)
	logits := m.MLMDecoder.Forward(ctx, x)
	mlmProbs := tensor.New(b.B*b.N, cfg.Vocab)
	mlmLoss := kernels.CrossEntropyForward(mlmProbs.Data(), logits.Data(), b.MLMTargets, b.B*b.N, cfg.Vocab)

	// NSP head over the CLS token of each sequence.
	cls := tensor.New(b.B, cfg.DModel)
	for s := 0; s < b.B; s++ {
		copy(cls.Row(s), seq.Row(s*b.N))
	}
	pooled := m.Pooler.Forward(ctx, cls)
	pooledTanh := tensor.New(b.B, cfg.DModel)
	for i, v := range pooled.Data() {
		pooledTanh.Data()[i] = tanh32(v)
	}
	nspLogits := m.NSP.Forward(ctx, pooledTanh)
	nspProbs := tensor.New(b.B, 2)
	nspLoss := kernels.CrossEntropyForward(nspProbs.Data(), nspLogits.Data(), b.NSPLabels, b.B, 2)

	// MLM head backward.
	dLogits := tensor.New(b.B*b.N, cfg.Vocab)
	kernels.CrossEntropyBackward(dLogits.Data(), mlmProbs.Data(), b.MLMTargets, b.B*b.N, cfg.Vocab)
	if s := ctx.EffectiveLossScale(); s != 1 {
		kernels.Scale(dLogits.Data(), dLogits.Data(), s)
	}
	dx := m.MLMDecoder.Backward(ctx, dLogits)
	dx = m.MLMLN.Backward(ctx, dx)
	dx = m.MLMAct.Backward(ctx, dx)
	dSeq := m.MLMDense.Backward(ctx, dx)

	// NSP head backward.
	dNSPLogits := tensor.New(b.B, 2)
	kernels.CrossEntropyBackward(dNSPLogits.Data(), nspProbs.Data(), b.NSPLabels, b.B, 2)
	if s := ctx.EffectiveLossScale(); s != 1 {
		kernels.Scale(dNSPLogits.Data(), dNSPLogits.Data(), s)
	}
	dPooledTanh := m.NSP.Backward(ctx, dNSPLogits)
	for i, td := range pooledTanh.Data() {
		dPooledTanh.Data()[i] *= 1 - td*td
	}
	dCLS := m.Pooler.Backward(ctx, dPooledTanh)
	for s := 0; s < b.B; s++ {
		dst := dSeq.Row(s * b.N)
		for j, v := range dCLS.Row(s) {
			dst[j] += v
		}
	}
	headGrad := tensor.New(b.B*b.N, cfg.DModel)
	copy(headGrad.Data(), dSeq.Data())

	for i := len(m.Layers) - 1; i >= 0; i-- {
		dSeq = m.Layers[i].Backward(ctx, dSeq)
	}
	m.Embed.Backward(ctx, dSeq)
	m.Embed.FlushTokScatter(ctx)
	return mlmLoss + nspLoss, headGrad
}

// sparseHeadConfig keeps every head GEMM on the engine under auto even with
// one scored row (2·1·128·128 = smallGEMMFlops), so the size rule sends the
// gathered and the all-rows head down the same route; a forced path does so
// at any size.
func sparseHeadConfig() Config {
	return Config{Vocab: 256, MaxPos: 32, NumLayers: 1, DModel: 128, Heads: 4, DFF: 256, DropProb: 0.1}
}

// scoreRows returns a copy of b whose MLM loss scores exactly the listed
// rows (their own token as the target).
func scoreRows(b *data.Batch, rows ...int) *data.Batch {
	cp := *b
	cp.MLMTargets = make([]int, len(b.MLMTargets))
	for i := range cp.MLMTargets {
		cp.MLMTargets[i] = kernels.IgnoreIndex
	}
	for _, r := range rows {
		cp.MLMTargets[r] = b.Tokens[r]
	}
	return &cp
}

// TestSparseHeadMatchesDenseOracle pins the gather-before-the-head
// contract: running the MLM head over the scored rows only is bitwise — not
// approximately — what running it over all B·n rows was, in the loss, in
// every parameter gradient and in the gradient handed to the encoder, on
// every GEMM route, with and without mixed precision and loss scaling, at
// the generator's 15 % masking, with every row scored, with one, and with
// none (where the loss is the NSP loss and the head records no kernel).
func TestSparseHeadMatchesDenseOracle(t *testing.T) {
	cfg := sparseHeadConfig()
	const B, N, seed = 2, 16, 5
	gen := tinyBatch(cfg, B, N, 11)
	all := make([]int, B*N)
	for i := range all {
		all[i] = i
	}
	batches := []struct {
		name  string
		batch *data.Batch
	}{
		{"masked15", gen},
		{"all_rows", scoreRows(gen, all...)},
		{"one_row", scoreRows(gen, N+3)},
		{"no_rows", scoreRows(gen)},
	}
	if mc := gen.MaskedCount(); mc < 2 || mc > B*N/2 {
		t.Fatalf("generator batch scores %d of %d rows; the 15%% case needs a few", mc, B*N)
	}

	for _, path := range []kernels.GEMMPath{
		kernels.GEMMPathNaive, kernels.GEMMPathBlocked, kernels.GEMMPathFused, kernels.GEMMPathAuto,
	} {
		for _, mp := range []bool{false, true} {
			for _, bc := range batches {
				t.Run(fmt.Sprintf("%v/mp=%v/%s", path, mp, bc.name), func(t *testing.T) {
					newCtx := func() *nn.Ctx {
						ctx := nn.NewCtx(9)
						ctx.Route = path
						ctx.MixedPrecision = mp
						if mp {
							ctx.LossScale = 1024
						}
						return ctx
					}
					build := func() *BERT {
						m, err := New(cfg, seed)
						if err != nil {
							t.Fatal(err)
						}
						return m
					}

					sparse, sctx := build(), newCtx()
					loss := sparse.Step(sctx, bc.batch)
					probe, pctx := build(), newCtx()
					probe.Forward(pctx, bc.batch)
					dSeq := probe.headsBackward(pctx)
					dense := build()
					wantLoss, wantDSeq := denseStep(dense, newCtx(), bc.batch)

					if math.Float64bits(loss) != math.Float64bits(wantLoss) {
						t.Errorf("loss %v, dense oracle %v", loss, wantLoss)
					}
					for i, w := range wantDSeq.Data() {
						if g := dSeq.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
							t.Fatalf("dSeq[%d] = %v, dense oracle %v", i, g, w)
						}
					}
					sp, dp := sparse.Params(), dense.Params()
					for i := range sp {
						sg, dg := sp[i].Grad.Data(), dp[i].Grad.Data()
						for j := range sg {
							if math.Float32bits(sg[j]) != math.Float32bits(dg[j]) {
								t.Fatalf("grad %s[%d] = %v, dense oracle %v", sp[i].Name, j, sg[j], dg[j])
							}
						}
					}

					if bc.batch.MaskedCount() == 0 {
						fwdGEMMs := 0
						for _, ev := range sctx.Prof.Events() {
							if strings.HasPrefix(ev.Kernel, "mlm_") {
								t.Errorf("no row scored, yet the head recorded %s", ev.Kernel)
							}
							if ev.Category == profile.CatOutput && ev.Kernel == "linear_fwd_gemm" {
								fwdGEMMs++
							}
						}
						if fwdGEMMs != 2 {
							t.Errorf("no row scored: %d output-category forward GEMMs, want 2 (pooler and NSP classifier)", fwdGEMMs)
						}
					}
				})
			}
		}
	}
}
