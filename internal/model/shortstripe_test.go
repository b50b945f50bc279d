package model

import (
	"math"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/tensor"
)

// TestShortStripeStepBitwiseBlocked: a reduced train_update step must give
// the forced blocked route's bits — the per-call schedule the short-stripe
// route replaced — in the loss, every parameter gradient and every weight
// after the LAMB update. It keeps train_update's 128 tokens, so every
// projection, its input gradient and the MLM head run on auto's
// short-stripe route, but as 16 sequences of 8 through d = 512 with two
// heads, so that the NSP classifier's and the per-head attention products
// clear the size rule: below it auto runs the naive loops, which blocked
// never does, and no step would match. The audit runs at sizes where auto
// takes the naive loops, so this is the model-level pin of the route.
func TestShortStripeStepBitwiseBlocked(t *testing.T) {
	cfg := Config{Vocab: 1024, MaxPos: 8, NumLayers: 2, DModel: 512, Heads: 2, DFF: 1024, DropProb: 0.1}
	batch := data.NewGenerator(cfg.Vocab, 0.15, 4).Next(16, 8)
	type result struct {
		loss  float64
		grads [][]float32
		m     *BERT
	}
	run := func(route kernels.GEMMPath) result {
		m, err := New(cfg, 6)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &nn.Ctx{RNG: tensor.NewRNG(10), Train: true, Route: route}
		r := result{loss: m.Forward(ctx, batch), m: m}
		m.Backward(ctx)
		for _, p := range m.Params() {
			r.grads = append(r.grads, append([]float32(nil), p.Grad.Data()...))
		}
		optim.NewLAMB(0.01).Step(ctx, m.Params())
		return r
	}
	before := counterValue(t, "kernels_gemm_short_stripe_total")
	auto := run(kernels.GEMMPathAuto)
	if counterValue(t, "kernels_gemm_short_stripe_total") == before {
		t.Fatal("the auto step took no short-stripe product")
	}
	blocked := run(kernels.GEMMPathBlocked)
	if math.Float64bits(auto.loss) != math.Float64bits(blocked.loss) {
		t.Fatalf("loss %v on auto, %v on blocked", auto.loss, blocked.loss)
	}
	ap, bp := auto.m.Params(), blocked.m.Params()
	for i, p := range bp {
		if k := firstBitDiff(auto.grads[i], blocked.grads[i]); k >= 0 {
			t.Errorf("%s gradient[%d]: %v on auto, %v on blocked", p.Name, k, auto.grads[i][k], blocked.grads[i][k])
		}
		if k := firstBitDiff(ap[i].Value.Data(), p.Value.Data()); k >= 0 {
			t.Errorf("%s after LAMB [%d]: %v on auto, %v on blocked", p.Name, k, ap[i].Value.Data()[k], p.Value.Data()[k])
		}
	}
}
