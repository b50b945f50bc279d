package memscale

import (
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/profile"
)

// Sharded is a virtual-shard optimizer-state engine: a single process
// walks K = len(Plan.Shards) shards of the optimizer state — LAMB's m
// and v, 8 bytes per parameter, 2× the model itself — keeping one shard's
// m/v resident at a time and spilling the rest to the Arena between
// iterations. Resident optimizer state drops to ~1/K at the cost of
// streaming 2× model size through the arena per iteration. Spilled bytes
// round-trip bitwise, so this equals the unsharded update. (Sharding the
// state across data-parallel ranks is the distnet trainer's own update.)
type Sharded struct {
	Opt   *optim.LAMB
	Plan  ShardPlan
	Arena *Arena // spill store for non-resident shards

	regions map[*nn.Param][2]Region // m, v spill regions
}

// NewSharded plans K shards over params and shards opt's state; SetArena
// enables the spilling.
func NewSharded(opt *optim.LAMB, params []*nn.Param, k int) (*Sharded, error) {
	plan, err := PlanShards(params, k)
	if err != nil {
		return nil, err
	}
	return &Sharded{Opt: opt, Plan: plan}, nil
}

// SetArena enables virtual-shard state spilling.
func (s *Sharded) SetArena(a *Arena) {
	s.Arena = a
	if s.regions == nil {
		s.regions = make(map[*nn.Param][2]Region)
	}
}

// Step applies one sharded optimizer iteration: the shards in turn, with
// at most one shard's optimizer state resident when an arena is set.
// params must be the same canonical full parameter list every call (it is
// what Prepare's global reductions run over); the shard partition of it
// is fixed by the Plan.
func (s *Sharded) Step(ctx *nn.Ctx, params []*nn.Param) error {
	st := s.Opt.Prepare(ctx, params)
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
// mark: m and v for the largest single shard.
func (s *Sharded) StateBytes() int64 {
	return int64(s.Plan.MaxShardElems()) * 2 * 4
}
