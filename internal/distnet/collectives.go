package distnet

import "fmt"

// reduceScatter and AllGather are the two halves of the ring AllReduce,
// exposed separately with CALLER-SUPPLIED chunk bounds. The trainer's
// sharded update needs bounds aligned to parameter-tensor boundaries —
// rank r owns the parameters in buf[bounds[r]:bounds[r+1]] — where
// AllReduce's internal c·n/D bounds would split a tensor between two
// owners.
//
// bounds must have world+1 non-decreasing entries with bounds[0] == 0 and
// bounds[world] == len(buf), identical on every rank. Both run on
// AllReduce's ring loop (Group.ring) as plain sums and copies.

// checkBounds validates a caller-supplied chunk partition.
func (g *Group) checkBounds(buf []float32, bounds []int) error {
	if len(bounds) != g.world+1 {
		return fmt.Errorf("distnet: %d bounds for world %d, want %d", len(bounds), g.world, g.world+1)
	}
	if bounds[0] != 0 || bounds[g.world] != len(buf) {
		return fmt.Errorf("distnet: bounds [%d,%d] do not span buffer of %d", bounds[0], bounds[g.world], len(buf))
	}
	for c := 0; c < g.world; c++ {
		if bounds[c] > bounds[c+1] {
			return fmt.Errorf("distnet: bounds not non-decreasing at %d", c)
		}
	}
	return nil
}

// reduceScatter sums buf element-wise across ranks such that on return
// this rank's own chunk buf[bounds[rank]:bounds[rank+1]] holds the full
// world-wide sum times scale. Other chunks are left holding partial sums
// and must be treated as garbage. Chunk c is folded in ring order starting
// after its owner: acc = x_{c+1}, then acc = x_{c+1+k mod D} + acc for
// k = 1..D-1, the last addend being the owner's own, and the owner
// computes float32(acc+own)·scale on that last step, as allReduce does:
// the trainer passes 1/world, the data-parallel average. At world=2 and
// scale 1 each element of the owned chunk is one float addition —
// bit-identical to AllReduce's reduced value.
func (g *Group) reduceScatter(tag uint32, buf []float32, bounds []int, scale float32) error {
	if g.world == 1 {
		return nil
	}
	if err := g.checkBounds(buf, bounds); err != nil {
		return err
	}
	// Step s sends the chunk reduced in step s-1 and folds the incoming
	// partial into the next one down the ring; after D-1 steps the chunk
	// that has visited every rank — chunk(rank) — rests here.
	return g.ring(tag, 0, buf, bounds, g.rank-1, scale)
}

// AllGather circulates each rank's own chunk — buf[bounds[rank]:
// bounds[rank+1]] must be filled before the call — so that on return
// every rank holds every chunk. Received bytes are copied verbatim, so a
// value computed on its owner rank arrives everywhere bit-identically.
func (g *Group) AllGather(tag uint32, buf []float32, bounds []int) error {
	if g.world == 1 {
		return nil
	}
	if err := g.checkBounds(buf, bounds); err != nil {
		return err
	}
	// Step s forwards the chunk received in step s-1 (step 0 sends our
	// own); after D-1 steps chunks rank, rank-1, …, rank-(D-1) have all
	// arrived — the full set.
	return g.ring(tag, 0, buf, bounds, g.rank, 0)
}
