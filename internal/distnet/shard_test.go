package distnet

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/tensor"
)

// ownerOrderSum is the serial reference for the trainer's averaging
// reduce-scatter over ownership bounds: element i of owner c's range is
// folded as the ring folds it, starting after the owner —
// acc = x[c+1][i], then acc = x[c+k][i] + acc for k = 2..d-1 — and the
// owner's last step computes float32(x[c][i]+acc)·inv. Above world 2 this
// is not AllReduce's order (ringOrderSum: even chunks, each folded
// starting at its own index), so the world-3 pin below sees the
// difference.
func ownerOrderSum(x [][]float32, bounds []int, inv float32) []float32 {
	d := len(x)
	out := make([]float32, len(x[0]))
	for c := 0; c < d; c++ {
		for i := bounds[c]; i < bounds[c+1]; i++ {
			acc := x[(c+1)%d][i]
			for k := 2; k < d; k++ {
				acc = x[(c+k)%d][i] + acc
			}
			out[i] = (x[c][i] + acc) * inv
		}
	}
	return out
}

// At world 3 the trainer must equal, bit for bit, three replicas stepped
// serially whose gradients are replaced by ownerOrderSum over the plan's
// ownership bounds, followed by one unsharded LAMB step each: the
// sharded update (owner-only LAMB, norm exchange, weight all-gather) adds
// nothing to the arithmetic beyond the reduce-scatter's fold order.
func TestTrainWorld3BitwiseMatchesOwnerRingOrder(t *testing.T) {
	const world, steps = 3, 3
	cfg := model.Tiny()
	trainers := newTrainers(t, joinWorld(t, world, 10*time.Second), cfg)
	plan := trainers[0].Plan()

	reps := make([]*model.BERT, world)
	ctxs := make([]*nn.Ctx, world)
	opts := make([]*optim.LAMB, world)
	for r := range reps {
		m, err := model.New(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		reps[r] = m
		ctxs[r] = &nn.Ctx{RNG: tensor.NewRNG(7 + uint64(r)*7919), Train: true}
		opts[r] = optim.NewLAMB(0.01)
	}
	// The reference lays each replica's gradients out in the plan's
	// buffer order, by parameter name.
	byName := func(m *model.BERT) []*nn.Param {
		at := map[string]*nn.Param{}
		for _, p := range m.Params() {
			at[p.Name] = p
		}
		out := make([]*nn.Param, len(plan.Params))
		for i, p := range plan.Params {
			out[i] = at[p.Name]
		}
		return out
	}
	refParams := make([][]*nn.Param, world)
	for r, m := range reps {
		refParams[r] = byName(m)
	}

	gen := data.NewGenerator(cfg.Vocab, 0.15, 31)
	sawOrder := false
	for s := 0; s < steps; s++ {
		batches := make([]*data.Batch, world)
		for r := range batches {
			batches[r] = gen.Next(2, 16)
		}
		stepTrainers(t, trainers, batches)

		flat := make([][]float32, world)
		for r, m := range reps {
			m.Forward(ctxs[r], batches[r])
			m.Backward(ctxs[r])
			for _, p := range refParams[r] {
				flat[r] = append(flat[r], p.Grad.Data()...)
			}
		}
		avg := ownerOrderSum(flat, plan.Own, 1/float32(world))
		even := ringOrderSum(flat)
		for i := range avg {
			if avg[i] != even[i]*(1/float32(world)) {
				sawOrder = true
				break
			}
		}
		for r, m := range reps {
			off := 0
			for _, p := range refParams[r] {
				off += copy(p.Grad.Data(), avg[off:])
			}
			opts[r].Step(ctxs[r], m.Params())
			m.ZeroGrads()
		}
	}
	if !sawOrder {
		t.Fatal("owner-order and all-reduce-order averages agree everywhere; the gradients cannot tell fold orders apart")
	}
	for r, tr := range trainers {
		paramsBitEqual(t, fmt.Sprintf("rank %d vs owner-order serial reference", r), tr.M, reps[0])
	}
}

// The ported ZeRO-1 pin: two ranks, each holding optimizer state for only
// its own shard, step the same batch with dropout off — so the averaged
// gradient is every rank's own, exactly — and must land bitwise on the
// weights one model reaches with an unsharded LAMB on that gradient.
func TestShardedLAMBWorld2BitwiseMatchesUnsharded(t *testing.T) {
	cfg := model.Tiny()
	cfg.DropProb = 0
	trainers := newTrainers(t, joinWorld(t, 2, 10*time.Second), cfg)
	ref, err := model.New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &nn.Ctx{RNG: tensor.NewRNG(1), Train: true}
	opt := optim.NewLAMB(0.01)
	gen := data.NewGenerator(cfg.Vocab, 0.15, 12)
	for s := 0; s < 3; s++ {
		b := gen.Next(2, 16)
		stepTrainers(t, trainers, []*data.Batch{b, b})
		ref.Forward(ctx, b)
		ref.Backward(ctx)
		opt.Step(ctx, ref.Params())
		ref.ZeroGrads()
	}
	paramsBitEqual(t, "rank 0 vs unsharded", trainers[0].M, ref)
	paramsBitEqual(t, "rank 1 vs unsharded", trainers[1].M, ref)
}

// Rank r's LAMB holds m and v for exactly the parameters it owns — a
// contiguous, tensor-aligned range of the buffers — the ranks' state sums
// to the model's, and no rank allocates a full-model staging buffer: the
// first step of a world-2 pair allocates at least a model's worth of
// float32 (4E bytes) less than two world-1 first steps, whose replicated
// m and v alone are 16E bytes; a per-rank staging buffer would give back
// 8E.
func TestShardedStateIsOwnShard(t *testing.T) {
	cfg := model.Tiny()
	gen := data.NewGenerator(cfg.Vocab, 0.15, 14)
	firstStep := func(world int) ([]*Trainer, uint64) {
		trainers := newTrainers(t, joinWorld(t, world, 10*time.Second), cfg)
		batches := make([]*data.Batch, world)
		for r := range batches {
			batches[r] = gen.Next(2, 16)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stepTrainers(t, trainers, batches)
		runtime.ReadMemStats(&after)
		return trainers, after.TotalAlloc - before.TotalAlloc
	}
	_, alloc1 := firstStep(1)
	for _, world := range []int{2, 3} {
		trainers, alloc := firstStep(world)
		plan := trainers[0].Plan()
		elems := int64(plan.Elems())
		// The gauge reads the last trainer built in the process.
		if got, want := optStateBytes.Value(), float64(8*(plan.Own[world]-plan.Own[world-1])); got != want {
			t.Fatalf("world %d: distnet_optimizer_state_bytes %v, want %v", world, got, want)
		}
		var sum int64
		for r, tr := range trainers {
			for i, p := range tr.Plan().Params {
				if got, want := tr.Opt.HasState(p), i >= plan.OwnParams[r] && i < plan.OwnParams[r+1]; got != want {
					t.Fatalf("world %d rank %d: %s has state %v, owned %v", world, r, p.Name, got, want)
				}
			}
			if got, want := tr.Opt.StateBytes(), 8*int64(plan.Own[r+1]-plan.Own[r]); got != want {
				t.Fatalf("world %d rank %d: %d state bytes, want %d", world, r, got, want)
			}
			sum += tr.Opt.StateBytes()
		}
		if sum != 8*elems {
			t.Fatalf("world %d: state sums to %d bytes, the model's m and v are %d", world, sum, 8*elems)
		}
		if world == 2 && alloc > 2*alloc1-uint64(4*elems) {
			t.Fatalf("world 2 first step allocated %d bytes, two world-1 first steps %d: want at least %d fewer",
				alloc, 2*alloc1, 4*elems)
		}
	}
}

// A rank dying while its peers are in the norm exchange or the weight
// all-gather must surface as an error at every survivor within its
// deadline, and poison the group, as for the gradient reduce-scatter
// (TestPeerDeathMidAllReduceFailsSurvivors). The dying rank runs the step
// up to the named collective and closes its group instead of entering it.
func TestPeerDeathMidUpdateFailsSurvivors(t *testing.T) {
	for _, phase := range []string{"norm", "gather"} {
		t.Run(phase, func(t *testing.T) {
			const world = 3
			cfg := model.Tiny()
			groups := joinWorld(t, world, 2*time.Second)
			gen := data.NewGenerator(cfg.Vocab, 0.15, 15)
			errs := make([]error, world)
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r, g := range groups {
				m, err := model.New(cfg, 7)
				if err != nil {
					t.Fatal(err)
				}
				tr := NewTrainer(g, m, 7, 32*1024, false, 0.01)
				b := gen.Next(2, 16)
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					if r < world-1 {
						_, _, errs[r] = tr.Step(b)
						return
					}
					// The dying rank: forward, backward, every bucket's
					// reduce-scatter, and for "gather" the norm exchange
					// and its own update too.
					var st stepStats
					tr.M.Forward(tr.Ctx, b)
					tr.M.Backward(tr.Ctx)
					all := make(chan int, len(tr.plan.List))
					for i := range tr.plan.List {
						all <- i
					}
					close(all)
					if cs := tr.commLoop(all); cs.err != nil {
						errs[r] = cs.err
						return
					}
					if phase == "gather" {
						ss, err := tr.globalSumSquares(&st)
						if err != nil {
							errs[r] = err
							return
						}
						tr.Opt.PrepareSumSquares(ss).Apply(tr.Ctx, tr.owned)
					}
					g.Close()
				}(r)
			}
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(15 * time.Second):
				t.Fatal("survivors hung after peer death; errors must surface within the deadline")
			}
			if errs[world-1] != nil {
				t.Fatalf("dying rank failed before reaching the %s: %v", phase, errs[world-1])
			}
			for r := 0; r < world-1; r++ {
				if errs[r] == nil {
					t.Fatalf("rank %d saw no error after peer death mid %s", r, phase)
				}
				if !strings.Contains(errs[r].Error(), "all-gather") {
					t.Fatalf("rank %d: %v, want an all-gather failure", r, errs[r])
				}
				if err := groups[r].AllReduce(9999, make([]float32, 8)); err == nil {
					t.Fatalf("rank %d: failed group accepted a new collective", r)
				}
			}
		})
	}
}

// The norm exchange carries each float64 bit-exact in two float32 slots,
// whatever the bits: a payload whose halves are NaN, infinite or
// subnormal float32 patterns must come back unchanged.
func TestNormSlotsRoundTripBits(t *testing.T) {
	groups := joinWorld(t, 2, 5*time.Second)
	vals := []float64{math.Float64frombits(0x7FF8_0001_7FC0_0001), math.Inf(1), 5e-324,
		math.Float64frombits(0x0000_0001_FF80_0000), -0.0, 1.0 / 3}
	bounds := []int{0, 6, 2 * len(vals)}
	bufs := [][]float32{make([]float32, 2*len(vals)), make([]float32, 2*len(vals))}
	for r := range bufs {
		for i := bounds[r] / 2; i < bounds[r+1]/2; i++ {
			bits := math.Float64bits(vals[i])
			bufs[r][2*i] = math.Float32frombits(uint32(bits))
			bufs[r][2*i+1] = math.Float32frombits(uint32(bits >> 32))
		}
	}
	runCollective(t, groups, func(g *Group) error { return g.AllGather(0x3001, bufs[g.Rank()], bounds) })
	for r := range bufs {
		for i, v := range vals {
			got := uint64(math.Float32bits(bufs[r][2*i])) | uint64(math.Float32bits(bufs[r][2*i+1]))<<32
			if got != math.Float64bits(v) {
				t.Fatalf("rank %d slot %d: %#x, want %#x", r, i, got, math.Float64bits(v))
			}
		}
	}
}
