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

// TestMixedSkipApplyKeepsFusedUnfusedInSync is the regression for the
// step-count desync bug class: when loss-scale overflow skips optimizer
// steps, the fused and unfused Adam organizations must agree on how many
// bias-correction steps have elapsed — a desync makes the early-training
// 1/(1-β^t) terms diverge wildly between the two. The skip pattern mixes
// applied and skipped iterations; both organizations must end with the
// same step count and near-identical weights, and each must be bitwise
// deterministic across reruns.
func TestMixedSkipApplyKeepsFusedUnfusedInSync(t *testing.T) {
	skip := []bool{false, true, false, false, true, true, false, false}

	run := func(fused bool) ([]*nn.Param, int) {
		rr := tensor.NewRNG(77)
		params := []*nn.Param{makeParam("a", rr, 33), makeParam("b", rr, 17)}
		o := NewAdam(0.01, fused)
		ctx := nn.NewCtx(1)
		gr := tensor.NewRNG(55)
		for _, s := range skip {
			fillGrads(gr, params)
			if s {
				continue // loss-scale overflow: no optimizer call at all
			}
			o.Step(ctx, params)
		}
		return params, o.StepCount()
	}

	fusedP, fusedSteps := run(true)
	unfusedP, unfusedSteps := run(false)
	applied := 0
	for _, s := range skip {
		if !s {
			applied++
		}
	}
	if fusedSteps != applied || unfusedSteps != applied {
		t.Fatalf("step counts desynced: fused %d, unfused %d, want %d",
			fusedSteps, unfusedSteps, applied)
	}
	for i := range fusedP {
		fd, ud := fusedP[i].Value.Data(), unfusedP[i].Value.Data()
		for j := range fd {
			if math.Abs(float64(fd[j]-ud[j])) > 1e-5 {
				t.Fatalf("param %d elem %d: fused %v vs unfused %v (bias correction desynced?)",
					i, j, fd[j], ud[j])
			}
		}
	}

	// Determinism: the same skip pattern reruns bitwise-identically.
	fusedP2, _ := run(true)
	for i := range fusedP {
		a, b := fusedP[i].Value.Data(), fusedP2[i].Value.Data()
		for j := range a {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("fused rerun diverged at param %d elem %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

// TestAdamShardedApplyBitwiseMatchesStep pins the prepare/apply contract:
// one Prepare followed by per-shard Apply calls advances the step
// count once and produces bitwise the same weights and state as a single
// whole-model Step.
func TestAdamShardedApplyBitwiseMatchesStep(t *testing.T) {
	mk := func() []*nn.Param {
		rr := tensor.NewRNG(31)
		return []*nn.Param{
			makeParam("a", rr, 40), makeParam("b", rr, 25),
			makeParam("c", rr, 13), makeParam("d", rr, 7),
		}
	}
	whole, sharded := mk(), mk()
	ow, os := NewAdam(0.02, true), NewAdam(0.02, true)
	ctx := nn.NewCtx(1)
	gr := tensor.NewRNG(91)
	for iter := 0; iter < 3; iter++ {
		fillGrads(gr, whole, sharded)
		ow.Step(ctx, whole)
		st := os.Prepare(ctx, sharded)
		st.Apply(ctx, sharded[:2])
		st.Apply(ctx, sharded[2:])
	}
	if ow.StepCount() != 3 || os.StepCount() != 3 {
		t.Fatalf("step counts: whole %d, sharded %d, want 3", ow.StepCount(), os.StepCount())
	}
	for i := range whole {
		wd, sd := whole[i].Value.Data(), sharded[i].Value.Data()
		for j := range wd {
			if math.Float32bits(wd[j]) != math.Float32bits(sd[j]) {
				t.Fatalf("param %d elem %d: whole %v != sharded %v", i, j, wd[j], sd[j])
			}
		}
		wm, wv := ow.State(whole[i])
		sm, sv := os.State(sharded[i])
		for j := range wm.Data() {
			if wm.Data()[j] != sm.Data()[j] || wv.Data()[j] != sv.Data()[j] {
				t.Fatalf("param %d state elem %d diverged", i, j)
			}
		}
	}
}

// TestLAMBShardedApplyBitwiseMatchesStep is the LAMB counterpart: the
// global clip scale is computed once from ALL parameters, then the update
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
	if ow.StepCount() != 3 || os.StepCount() != 3 {
		t.Fatalf("step counts: whole %d, sharded %d, want 3", ow.StepCount(), os.StepCount())
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
