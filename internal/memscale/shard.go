package memscale

import (
	"fmt"

	"demystbert/internal/nn"
)

// ShardPlan partitions a parameter list into K contiguous shards,
// balanced by element count. Contiguity matters twice over: laid out in
// the list's order, a shard is one contiguous span of the flat buffer
// (Bounds are tensor-aligned chunk bounds, what the distnet trainer hands
// its reduce-scatter and all-gather), and the global-norm and update
// arithmetic visit parameters in the same order the unsharded optimizer
// would.
type ShardPlan struct {
	Shards [][]*nn.Param // Shards[k] is params[lo_k:hi_k] of the planned list
	Bounds []int         // flat element offsets, len K+1; shard k spans Bounds[k]:Bounds[k+1]
}

// PlanShards builds a K-way plan over params (every trainable parameter,
// in the order they are laid out). Every shard gets at least the
// parameters needed to keep cumulative size nearest the ideal k·total/K
// split points; with
// more shards than parameters the tail shards are empty, which is valid —
// their owners simply have nothing to update.
func PlanShards(params []*nn.Param, k int) (ShardPlan, error) {
	if k < 1 {
		return ShardPlan{}, fmt.Errorf("memscale: shard count %d < 1", k)
	}
	total := 0
	for _, p := range params {
		total += p.Size()
	}
	plan := ShardPlan{
		Shards: make([][]*nn.Param, k),
		Bounds: make([]int, k+1),
	}
	lo, off := 0, 0
	for s := 0; s < k; s++ {
		target := (s + 1) * total / k
		hi := lo
		size := 0
		for hi < len(params) {
			next := size + params[hi].Size()
			// Take the parameter if it brings us nearer the split point.
			if off+next > target && (off+next-target) > (target-off-size) {
				break
			}
			size = next
			hi++
		}
		if s == k-1 {
			for hi < len(params) {
				size += params[hi].Size()
				hi++
			}
		}
		plan.Shards[s] = params[lo:hi]
		off += size
		plan.Bounds[s+1] = off
		lo = hi
	}
	return plan, nil
}

// Elems returns the total element count across all shards.
func (pl ShardPlan) Elems() int { return pl.Bounds[len(pl.Bounds)-1] }

// MaxShardElems returns the largest shard's element count — the resident
// optimizer-state working set of the virtual-shard mode (×2 for m and v).
func (pl ShardPlan) MaxShardElems() int {
	max := 0
	for s := range pl.Shards {
		if n := pl.Bounds[s+1] - pl.Bounds[s]; n > max {
			max = n
		}
	}
	return max
}
