package optim

import (
	"testing"

	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// TestOptimizerStepInvalidatesPackCache proves the pack-cache generation
// contract end to end: a Linear forward caches a pack of W, an optimizer
// step mutates W and bumps the generation, and the next forward must
// match — bitwise — a fresh layer built from the post-step weights (i.e.
// a fresh repack). The shape is chosen large enough to route through the
// blocked GEMMPacked path, where a stale pack would actually be read.
func TestOptimizerStepInvalidatesPackCache(t *testing.T) {
	t.Run("lamb", func(t *testing.T) {
		r := tensor.NewRNG(31)
		const in, out, tokens = 64, 64, 32
		l := nn.NewLinear("l", in, out, profile.CatLinear, r)
		x := tensor.New(tokens, in)
		x.FillUniform(r, -1, 1)
		ctx := &nn.Ctx{RNG: tensor.NewRNG(1), Train: true}

		l.Forward(ctx, x) // populates the pack cache
		genBefore := l.W.Gen()
		for _, p := range l.Params() {
			p.Grad.FillUniform(r, -1, 1)
		}
		NewLAMB(0.05).Step(ctx, l.Params())
		if l.W.Gen() == genBefore {
			t.Fatal("optimizer step must bump the weight generation")
		}

		got := l.Forward(ctx, x)

		// A layer that never saw the pre-step weights: same Values,
		// necessarily a fresh pack.
		fresh := nn.NewLinear("f", in, out, profile.CatLinear, tensor.NewRNG(2))
		copy(fresh.W.Value.Data(), l.W.Value.Data())
		copy(fresh.B.Value.Data(), l.B.Value.Data())
		want := fresh.Forward(ctx, x)

		gd, wd := got.Data(), want.Data()
		for i := range gd {
			if gd[i] != wd[i] {
				t.Fatalf("post-step forward differs from fresh repack at %d: %v vs %v (stale pack served)", i, gd[i], wd[i])
			}
		}
	})
}
