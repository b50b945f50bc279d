package memscale

import (
	"math"
	"testing"

	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/tensor"
)

func fillGrads(r *tensor.RNG, sets ...[]*nn.Param) {
	ref := sets[0]
	for i := range ref {
		ref[i].Grad.FillUniform(r, -0.1, 0.1)
		for _, ps := range sets[1:] {
			copy(ps[i].Grad.Data(), ref[i].Grad.Data())
		}
	}
}

func paramsEqual(t *testing.T, label string, a, b []*nn.Param) {
	t.Helper()
	for i := range a {
		ad, bd := a[i].Value.Data(), b[i].Value.Data()
		for j := range ad {
			if math.Float32bits(ad[j]) != math.Float32bits(bd[j]) {
				t.Fatalf("%s: param %d elem %d: %v != %v", label, i, j, ad[j], bd[j])
			}
		}
	}
}

// TestVirtualShardLAMBBitwiseMatchesUnsharded is the virtual-shard pin:
// a K=3 sharded LAMB that spills every shard's m/v to the arena between
// iterations must track the plain unsharded LAMB bitwise — spilled state
// round-trips exactly and the step count advances once per iteration.
func TestVirtualShardLAMBBitwiseMatchesUnsharded(t *testing.T) {
	mk := func() []*nn.Param { return mkParams(128, 65, 17, 200, 33, 9) }
	plain, sharded := mk(), mk()

	a, err := NewArena(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	po := optim.NewLAMB(0.01)
	so := optim.NewLAMB(0.01)
	sh, err := NewSharded(so, sharded, 3)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetArena(a)

	ctx := nn.NewCtx(1)
	gr := tensor.NewRNG(5)
	for iter := 0; iter < 4; iter++ {
		fillGrads(gr, plain, sharded)
		po.Step(ctx, plain)
		if err := sh.Step(ctx, sharded); err != nil {
			t.Fatal(err)
		}
	}
	// Bias correction 1−β^t differs at every t, so bitwise equality with
	// the plain LAMB's weights also pins the step count at 4.
	paramsEqual(t, "virtual-shard LAMB", plain, sharded)

	if sh.StateBytes() <= 0 {
		t.Fatal("StateBytes not reported")
	}
	if swaps := shardSwapsTotal.Value(); swaps < 12 { // 3 shards × 4 iters
		t.Fatalf("shard swaps %d, want >= 12", swaps)
	}
}
