package memscale

import (
	"testing"

	"demystbert/internal/nn"
	"demystbert/internal/tensor"
)

func mkParams(sizes ...int) []*nn.Param {
	r := tensor.NewRNG(9)
	ps := make([]*nn.Param, len(sizes))
	for i, n := range sizes {
		ps[i] = nn.NewParam("p", n)
		ps[i].Value.FillUniform(r, -1, 1)
		ps[i].Grad.FillUniform(r, -0.1, 0.1)
	}
	return ps
}

func TestPlanShardsPartitionIsExactAndAligned(t *testing.T) {
	params := mkParams(100, 7, 300, 42, 5, 90, 1, 256)
	for _, k := range []int{1, 2, 3, 5, 20} {
		plan, err := PlanShards(params, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Shards) != k {
			t.Fatalf("k=%d: %d shards", k, len(plan.Shards))
		}
		// Every param exactly once, in order, with matching bounds.
		idx, off := 0, 0
		for s, shard := range plan.Shards {
			if plan.Bounds[s] != off {
				t.Fatalf("k=%d shard %d: bound %d, want %d", k, s, plan.Bounds[s], off)
			}
			for _, p := range shard {
				if p != params[idx] {
					t.Fatalf("k=%d: param order broken at %d", k, idx)
				}
				idx++
				off += p.Size()
			}
		}
		if idx != len(params) {
			t.Fatalf("k=%d: covered %d of %d params", k, idx, len(params))
		}
		total := 0
		for _, p := range params {
			total += p.Size()
		}
		if plan.Elems() != total {
			t.Fatalf("k=%d: Elems %d, want %d", k, plan.Elems(), total)
		}
	}
}

func TestPlanShardsBalance(t *testing.T) {
	// Many equal params must split near-evenly.
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = 50
	}
	plan, err := PlanShards(mkParams(sizes...), 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		n := plan.Bounds[s+1] - plan.Bounds[s]
		if n != 800 {
			t.Fatalf("shard %d has %d elems, want 800", s, n)
		}
	}
	if plan.MaxShardElems() != 800 {
		t.Fatalf("MaxShardElems %d", plan.MaxShardElems())
	}
}

func TestPlanShardsRejectsBadK(t *testing.T) {
	if _, err := PlanShards(mkParams(10), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}
