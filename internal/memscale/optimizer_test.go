package memscale

import (
	"math"
	"sync"
	"testing"
	"time"

	"demystbert/internal/distnet"
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
	sh, err := NewSharded(so, sharded, 3, nil)
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
	if so.StepCount() != 4 {
		t.Fatalf("sharded step count %d, want 4", so.StepCount())
	}
	paramsEqual(t, "virtual-shard LAMB", plain, sharded)

	if sh.StateBytes() <= 0 {
		t.Fatal("StateBytes not reported")
	}
	if swaps := shardSwapsTotal.Value(); swaps < 12 { // 3 shards × 4 iters
		t.Fatalf("shard swaps %d, want >= 12", swaps)
	}
}

// TestVirtualShardAdamBitwiseMatchesUnsharded covers the Adam wrap.
func TestVirtualShardAdamBitwiseMatchesUnsharded(t *testing.T) {
	mk := func() []*nn.Param { return mkParams(90, 31, 140) }
	plain, sharded := mk(), mk()

	a, err := NewArena(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	po := optim.NewAdam(0.01, true)
	so := optim.NewAdam(0.01, true)
	sh, err := NewSharded(so, sharded, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetArena(a)

	ctx := nn.NewCtx(1)
	gr := tensor.NewRNG(6)
	for iter := 0; iter < 3; iter++ {
		fillGrads(gr, plain, sharded)
		po.Step(ctx, plain)
		if err := sh.Step(ctx, sharded); err != nil {
			t.Fatal(err)
		}
	}
	paramsEqual(t, "virtual-shard Adam", plain, sharded)
}

// joinPair stands up a loopback world-2 group in-process.
func joinPair(t *testing.T) []*distnet.Group {
	t.Helper()
	groups, err := distnet.JoinLoopback(2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, g := range groups {
			g.Close()
		}
	})
	return groups
}

// TestShardedLAMBWorld2BitwiseMatchesUnsharded is the ZeRO-1 pin at
// world 2: two ranks, each holding optimizer state for only its own
// shard, update their shards and all-gather the weights. Both ranks'
// full weight sets must be bitwise identical to an unsharded LAMB run
// on the same (already all-reduced) gradients.
func TestShardedLAMBWorld2BitwiseMatchesUnsharded(t *testing.T) {
	groups := joinPair(t)
	mk := func() []*nn.Param { return mkParams(150, 44, 80, 21, 64) }
	reference := mk()
	replicas := [][]*nn.Param{mk(), mk()}

	ro := optim.NewLAMB(0.01)
	shs := make([]*Sharded, 2)
	for r := 0; r < 2; r++ {
		var err error
		shs[r], err = NewSharded(optim.NewLAMB(0.01), replicas[r], 2, groups[r])
		if err != nil {
			t.Fatal(err)
		}
	}

	gr := tensor.NewRNG(12)
	refCtx := nn.NewCtx(1)
	for iter := 0; iter < 3; iter++ {
		// Identical grads everywhere — the state after the trainer's
		// gradient all-reduce.
		fillGrads(gr, reference, replicas[0], replicas[1])
		ro.Step(refCtx, reference)

		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = shs[r].Step(nn.NewCtx(1), replicas[r])
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d iter %d: %v", r, iter, err)
			}
		}
	}
	paramsEqual(t, "rank 0 vs unsharded", reference, replicas[0])
	paramsEqual(t, "rank 1 vs unsharded", reference, replicas[1])
}

// TestShardedRejectsWorldMismatch: K must equal the world size in
// distributed mode.
func TestShardedRejectsWorldMismatch(t *testing.T) {
	groups := joinPair(t)
	if _, err := NewSharded(optim.NewLAMB(0.01), mkParams(10, 10), 3, groups[0]); err == nil {
		t.Fatal("3 shards for world 2 accepted")
	}
	// Unblock rank 1's group teardown (no collective was issued).
	_ = groups
}
