package memscale

import (
	"fmt"

	"demystbert/internal/distnet"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/profile"
)

// Sharded is a ZeRO-1 optimizer-state-sharded update engine. The model,
// gradients, and weights stay fully replicated (plain data parallelism);
// only the optimizer state — Adam/LAMB's m and v, 8 bytes per parameter,
// 2× the model itself — is partitioned by the ShardPlan.
//
// Two modes share the arithmetic:
//
//   - Distributed (G non-nil, world > 1): rank r keeps m/v only for
//     shard r. Each iteration — gradients already all-reduced by the
//     trainer, so every rank computes the identical global clip scale —
//     the rank updates its own shard's weights and the updated weights
//     circulate with a param-aligned ring AllGather. Per-rank optimizer
//     state drops to 1/world; updated bytes are copied verbatim, so
//     every rank's weights are bitwise what an unsharded run computes.
//
//   - Virtual shards (G nil, K = Plan.NumShards() > 1): a single process
//     walks the shards sequentially, keeping one shard's m/v resident at
//     a time and spilling the rest to the Arena between iterations.
//     Resident optimizer state drops to ~1/K at the cost of streaming
//     2× model size through the arena per iteration. Spilled bytes
//     round-trip bitwise, so this too equals the unsharded update.
type Sharded struct {
	Opt   optim.Shardable
	Plan  ShardPlan
	G     *distnet.Group // nil, or the data-parallel group (one shard per rank)
	Arena *Arena         // virtual mode: spill store for non-resident shards

	step    int
	gather  []float32
	regions map[*nn.Param][2]Region // m, v spill regions
}

// NewSharded plans K shards over params and shards opt's state (LAMB or
// Adam). For distributed use pass the group as g (K must equal the world
// size and the trainer must have all-reduced gradients before Step); for
// single-process virtual sharding pass g == nil and an arena via SetArena.
func NewSharded(opt optim.Shardable, params []*nn.Param, k int, g *distnet.Group) (*Sharded, error) {
	if g != nil && g.World() > 1 && k != g.World() {
		return nil, fmt.Errorf("memscale: %d shards for world %d", k, g.World())
	}
	plan, err := PlanShards(params, k)
	if err != nil {
		return nil, err
	}
	return &Sharded{Opt: opt, Plan: plan, G: g}, nil
}

// SetArena enables virtual-shard state spilling.
func (s *Sharded) SetArena(a *Arena) {
	s.Arena = a
	if s.regions == nil {
		s.regions = make(map[*nn.Param][2]Region)
	}
}

// Step applies one sharded optimizer iteration. params must be the same
// canonical full parameter list every call (it is what Prepare's global
// reductions run over); the shard partition of it is fixed by the Plan.
func (s *Sharded) Step(ctx *nn.Ctx, params []*nn.Param) error {
	st := s.Opt.Prepare(ctx, params)
	s.step++
	if s.G != nil && s.G.World() > 1 {
		return s.stepWorld(ctx, st)
	}
	return s.stepVirtual(ctx, st)
}

// stepWorld updates this rank's shard and ring-gathers the weights.
func (s *Sharded) stepWorld(ctx *nn.Ctx, st optim.Applier) error {
	rank := s.G.Rank()
	st.Apply(ctx, s.Plan.Shards[rank])

	if s.gather == nil {
		s.gather = make([]float32, s.Plan.Elems())
	}
	buf := s.gather
	lo := s.Plan.Bounds[rank]
	off := lo
	for _, p := range s.Plan.Shards[rank] {
		off += copy(buf[off:], p.Value.Data())
	}
	// 0x01 top byte keeps the tag clear of the trainer's 24-bit bucket
	// tags and the 0xC… control range.
	tag := 0x01000000 | (uint32(s.step) & 0x00FFFFFF)
	var err error
	ctx.Prof.Time("allgather_weights", profile.CatComm, profile.Update,
		0, int64(len(buf))*4, func() {
			err = s.G.AllGather(tag, buf, s.Plan.Bounds)
		})
	if err != nil {
		return err
	}
	for r, shard := range s.Plan.Shards {
		if r == rank {
			continue
		}
		off := s.Plan.Bounds[r]
		for _, p := range shard {
			w := p.Value.Data()
			copy(w, buf[off:off+len(w)])
			off += len(w)
			p.BumpGen() // weights changed: invalidate cached GEMM packs
		}
	}
	return nil
}

// stepVirtual walks the shards with at most one shard's optimizer state
// resident (when an arena is set).
func (s *Sharded) stepVirtual(ctx *nn.Ctx, st optim.Applier) error {
	for _, shard := range s.Plan.Shards {
		if s.Arena != nil {
			if err := s.loadShardState(ctx, shard); err != nil {
				return err
			}
		}
		st.Apply(ctx, shard)
		if s.Arena != nil {
			if err := s.spillShardState(ctx, shard); err != nil {
				return err
			}
			shardSwapsTotal.Inc()
		}
	}
	return nil
}

// loadShardState restores previously spilled m/v for the shard's params.
// Params never spilled before (first iteration) are left to the
// optimizer's lazy zero-initialized allocation.
func (s *Sharded) loadShardState(ctx *nn.Ctx, shard []*nn.Param) error {
	var err error
	ctx.Prof.Time("spill_optstate_read", profile.CatOther, profile.Update,
		0, shardStateBytes(shard), func() {
			for _, p := range shard {
				regs, ok := s.regions[p]
				if !ok {
					continue
				}
				m, v := s.Opt.State(p)
				if err = s.Arena.Read(regs[0], m.Data()); err != nil {
					return
				}
				if err = s.Arena.Read(regs[1], v.Data()); err != nil {
					return
				}
			}
		})
	return err
}

// spillShardState writes the shard's m/v to the arena and releases the
// resident tensors.
func (s *Sharded) spillShardState(ctx *nn.Ctx, shard []*nn.Param) error {
	var err error
	ctx.Prof.Time("spill_optstate_write", profile.CatOther, profile.Update,
		0, shardStateBytes(shard), func() {
			for _, p := range shard {
				m, v := s.Opt.State(p)
				regs, ok := s.regions[p]
				if !ok {
					regs = [2]Region{s.Arena.Alloc(p.Size()), s.Arena.Alloc(p.Size())}
					s.regions[p] = regs
				}
				if err = s.Arena.Write(regs[0], m.Data()); err != nil {
					return
				}
				if err = s.Arena.Write(regs[1], v.Data()); err != nil {
					return
				}
				s.Opt.ReleaseState(p)
			}
		})
	return err
}

func shardStateBytes(shard []*nn.Param) int64 {
	var n int64
	for _, p := range shard {
		n += int64(p.Size())
	}
	return n * 2 * 4 // m and v, float32
}

// StateBytes estimates the sharded optimizer's resident state high-water
// mark: m and v for the largest single shard (virtual mode) or for this
// rank's shard (distributed mode).
func (s *Sharded) StateBytes() int64 {
	if s.G != nil && s.G.World() > 1 {
		r := s.G.Rank()
		return int64(s.Plan.Bounds[r+1]-s.Plan.Bounds[r]) * 2 * 4
	}
	return int64(s.Plan.MaxShardElems()) * 2 * 4
}
