package model

import (
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/nn"
	"demystbert/internal/obs"
	"demystbert/internal/optim"
	"demystbert/internal/tensor"
)

// counterValue reads a counter of the default registry by name, as
// /metrics serves it.
func counterValue(t *testing.T, name string) float64 {
	t.Helper()
	for _, m := range obs.Default.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("counter %s is not registered", name)
	return 0
}

// TestShortStripeCountPerStep pins the route mix of a train_update step
// (4 layers, d = 256, d_ff = 1024, one 128-token sequence, 8192-word
// vocabulary) on /metrics: every product whose output has at most two
// row blocks and whose weight is on its generation's first use takes the
// short-stripe route. Per layer that is the six forward projections (Q,
// K, V, output, FC1, FC2) and their six input gradients; the heads add
// the pooler, the MLM transform and the tied decoder, forward and input
// gradient each. The weight gradients (m = the layer's output width ≥
// 256) and the per-head attention products (serial, one matrix per work
// item) keep the blocked schedule, and the NSP classifier (2 columns) is
// below the size rule.
func TestShortStripeCountPerStep(t *testing.T) {
	if testing.Short() {
		t.Skip("a full train_update-sized model")
	}
	cfg := Config{Vocab: 8192, MaxPos: 128, NumLayers: 4, DModel: 256, Heads: 4, DFF: 1024, DropProb: 0.1}
	m, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(cfg.Vocab, 0.15, 2)
	ctx := &nn.Ctx{RNG: tensor.NewRNG(9), Train: true}
	opt := optim.NewLAMB(0.001)
	const want = 4*12 + 3*2
	for step := 0; step < 2; step++ {
		batch := gen.Next(1, 128)
		before := counterValue(t, "kernels_gemm_short_stripe_total")
		m.Forward(ctx, batch)
		m.Backward(ctx)
		opt.Step(ctx, m.Params())
		m.ZeroGrads()
		if got := counterValue(t, "kernels_gemm_short_stripe_total") - before; got != want {
			t.Errorf("step %d: kernels_gemm_short_stripe_total moved by %v, want %d", step, got, want)
		}
	}
}
