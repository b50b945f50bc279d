package optim

import (
	"math"
	"testing"

	"demystbert/internal/nn"
	"demystbert/internal/tensor"
)

// fillGrads writes the same pseudo-random gradients into each param set
// from a shared RNG stream, simulating one backward pass per iteration.
func fillGrads(r *tensor.RNG, paramSets ...[]*nn.Param) {
	ref := paramSets[0]
	for i := range ref {
		ref[i].Grad.FillUniform(r, -0.1, 0.1)
		for _, ps := range paramSets[1:] {
			copy(ps[i].Grad.Data(), ref[i].Grad.Data())
		}
	}
}

// TestLAMBShardedApplyBitwiseMatchesStep pins the prepare/apply contract:
// the global clip scale is computed once from ALL parameters, then the update
// is applied shard by shard. Both the per-shard interleaving of stage 1
// and stage 2 and the once-per-iteration step count must leave weights
// bitwise identical to the whole-model Step.
func TestLAMBShardedApplyBitwiseMatchesStep(t *testing.T) {
	mk := func() []*nn.Param {
		rr := tensor.NewRNG(47)
		return []*nn.Param{
			makeParam("a", rr, 64), makeParam("b", rr, 32), makeParam("c", rr, 9),
		}
	}
	whole, sharded := mk(), mk()
	ow, os := NewLAMB(0.01), NewLAMB(0.01)
	ctx := nn.NewCtx(1)
	gr := tensor.NewRNG(17)
	for iter := 0; iter < 3; iter++ {
		fillGrads(gr, whole, sharded)
		ow.Step(ctx, whole)
		st := os.Prepare(ctx, sharded) // clip norm over ALL params
		st.Apply(ctx, sharded[:1])
		st.Apply(ctx, sharded[1:])
	}
	if ow.step != 3 || os.step != 3 {
		t.Fatalf("step counts: whole %d, sharded %d, want 3", ow.step, os.step)
	}
	for i := range whole {
		wd, sd := whole[i].Value.Data(), sharded[i].Value.Data()
		for j := range wd {
			if math.Float32bits(wd[j]) != math.Float32bits(sd[j]) {
				t.Fatalf("param %d elem %d: whole %v != sharded %v", i, j, wd[j], sd[j])
			}
		}
	}
}
