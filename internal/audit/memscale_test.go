package audit

// Memory-scaling pins (internal/memscale): gradient accumulation and
// optimizer-state sharding are pure reorganizations of the same math, so
// both are held to bitwise equality — StepAccum(B/k, k) against the
// full-batch Step(B) across the GEMM-path × checkpointing matrix, and
// the sharded LAMB update against the unsharded optimizer, in memscale's
// virtual shards and in the world-2 data-parallel trainer.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/distnet"
	"demystbert/internal/kernels"
	"demystbert/internal/memscale"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/tensor"
)

// accumB is the full batch; accumSteps splits it into micro-batches.
const accumB, accumSteps = 4, 2

// accumConfig is the step config with dropout off: accumulation replays
// the same data through the same kernels, but the dropout RNG stream
// advances per forward call, so bitwise equality is only defined for the
// deterministic part of the network.
func accumConfig() model.Config {
	cfg := stepConfig()
	cfg.DropProb = 0
	return cfg
}

// AccumModes enumerates the accumulation-equivalence matrix: every GEMM
// route × checkpointing, at one and at full pool width. MP is pinned off
// (the loss-scaling interplay is audited separately).
func AccumModes(quick bool) []Mode {
	workers := dedupInts([]int{1, runtime.GOMAXPROCS(0)})
	if quick {
		workers = dedupInts([]int{runtime.GOMAXPROCS(0)})
	}
	var ms []Mode
	for _, p := range routes {
		if quick && p == kernels.GEMMPathAuto {
			continue // quick: the forced routes, where the pin is bitwise
		}
		for _, w := range workers {
			for _, ck := range []bool{false, true} {
				ms = append(ms, Mode{Path: p, Workers: w, Ckpt: ck})
			}
		}
	}
	return ms
}

// CheckAccumEquivalence runs the same global batch once as a single
// full-batch Step and once as StepAccum over accumSteps micro-batches,
// under mode m, and demands bitwise-identical loss and parameter
// gradients. Both runs share the mode's worker count and GEMM path, so
// the only varying factor is the accumulation split itself.
//
// Auto routing is the one exception to bitwise: the small-GEMM fallback
// picks a kernel by 2·m·n·k, which accumulation changes (k is the token
// count in every wgrad). A micro-batch can take the naive fallback where
// the full batch takes the blocked kernel; the difference is pure f32
// rounding, so that route is pinned at the blocked-engine tolerance
// instead.
func CheckAccumEquivalence(m Mode) []Divergence {
	var fwd, grad Tol
	if m.Path == kernels.GEMMPathAuto {
		fwd, grad = tolBlockedFwd, tolBlockedGrad
	}

	run := func(accum int) *Trace {
		bert, err := model.New(accumConfig(), weightSeed)
		if err != nil {
			panic("audit: " + err.Error())
		}
		if m.Ckpt {
			bert.CheckpointEvery = 1
		}
		batch := data.NewGenerator(accumConfig().Vocab, 0.15, dataSeed).Next(accumB, stepN)
		ctx := m.ctx()
		bert.ZeroGrads()
		var loss float64
		if accum == 1 {
			loss = bert.Step(ctx, batch)
		} else {
			loss = bert.StepAccum(ctx, batch, accum)
		}
		tr := newTrace()
		tr.Loss, tr.HasLoss = loss, true
		for _, p := range bert.Params() {
			tr.add("grad:"+p.Name, p.Grad.Data())
		}
		return tr
	}

	want := run(1)
	got := run(accumSteps)
	return compareTraces("bert.accum", m, got, want, fwd, grad)
}

// shardParams builds a deterministic, deliberately uneven parameter set
// for the sharding pins.
func shardParams() []*nn.Param {
	r := tensor.NewRNG(weightSeed)
	sizes := []int{96, 33, 130, 17, 64}
	ps := make([]*nn.Param, len(sizes))
	for i, n := range sizes {
		ps[i] = nn.NewParam(fmt.Sprintf("shard.p%d", i), n)
		ps[i].Value.FillUniform(r, -1, 1)
	}
	return ps
}

// shardDiverge wraps a setup failure as a reportable divergence.
func shardDiverge(tensorName string, err error) []Divergence {
	return []Divergence{{
		Subject: "optim.sharded", Kind: "setup", Tensor: tensorName, Detail: err.Error(),
	}}
}

// compareShardValues diffs parameter values bitwise against the
// unsharded reference.
func compareShardValues(label string, got, want []*nn.Param) []Divergence {
	var divs []Divergence
	for i := range want {
		if d := diffSlices(got[i].Value.Data(), want[i].Value.Data(), Tol{}); d != "" {
			divs = append(divs, Divergence{
				Subject: "optim.sharded", Kind: "grad",
				Tensor: label + ":" + want[i].Name, Detail: d,
			})
		}
	}
	return divs
}

// CheckShardedOptimizer pins the sharded optimizer update bitwise against
// the unsharded LAMB, in both execution modes: virtual shards (one
// process, K=3, m/v spilled through the arena between shards) and the
// data-parallel trainer on a real world-2 process group over loopback TCP
// (each rank reduce-scatters the gradients, updates the parameters it
// owns and all-gathers the weights). Both ranks step the same batch with
// dropout off, so the averaged gradient is each rank's own, exactly, and
// the reference is one model stepped by a plain LAMB.
func CheckShardedOptimizer() []Divergence {
	var divs []Divergence
	ctx := nn.NewCtx(ctxSeed)

	// --- virtual shards -------------------------------------------------
	plain, sharded := shardParams(), shardParams()
	arena, err := memscale.NewArena("")
	if err != nil {
		return shardDiverge("arena", err)
	}
	defer arena.Close()
	po, so := optim.NewLAMB(0.01), optim.NewLAMB(0.01)
	sh, err := memscale.NewSharded(so, sharded, 3)
	if err != nil {
		return shardDiverge("virtual", err)
	}
	sh.SetArena(arena)
	gr := tensor.NewRNG(dataSeed)
	for iter := 0; iter < 3; iter++ {
		for i := range plain {
			plain[i].Grad.FillUniform(gr, -0.1, 0.1)
			copy(sharded[i].Grad.Data(), plain[i].Grad.Data())
		}
		po.Step(ctx, plain)
		if err := sh.Step(ctx, sharded); err != nil {
			return append(divs, shardDiverge("virtual", err)...)
		}
	}
	divs = append(divs, compareShardValues("virtual-k3", sharded, plain)...)

	// --- world 2 over loopback TCP --------------------------------------
	groups, err := distnet.JoinLoopback(2, 10*time.Second)
	if err != nil {
		return append(divs, shardDiverge("world2-join", err)...)
	}
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	cfg := accumConfig()
	newModel := func() *model.BERT {
		m, err := model.New(cfg, weightSeed)
		if err != nil {
			panic(err)
		}
		return m
	}
	reference := newModel()
	ro := optim.NewLAMB(0.01)
	trainers := make([]*distnet.Trainer, 2)
	for r := range trainers {
		trainers[r] = distnet.NewTrainer(groups[r], newModel(), ctxSeed, 16*1024, true, 0.01)
	}
	gen := data.NewGenerator(cfg.Vocab, 0.15, dataSeed+1)
	for iter := 0; iter < 3; iter++ {
		batch := gen.Next(2, 16)
		reference.Step(ctx, batch)
		ro.Step(ctx, reference.Params())
		reference.ZeroGrads()
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r := range trainers {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				_, _, errs[r] = trainers[r].Step(batch)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				return append(divs, shardDiverge(fmt.Sprintf("world2-rank%d", r), err)...)
			}
		}
	}
	divs = append(divs, compareShardValues("world2-rank0", trainers[0].M.Params(), reference.Params())...)
	divs = append(divs, compareShardValues("world2-rank1", trainers[1].M.Params(), reference.Params())...)
	return divs
}

// TestAccumEquivalence pins StepAccum bitwise against the full-batch
// Step across the GEMM-path × checkpointing matrix.
func TestAccumEquivalence(t *testing.T) {
	forEachMode(t, AccumModes(testing.Short()), CheckAccumEquivalence)
}

// TestShardedOptimizerBitwise pins the sharded update — virtual shards
// through the arena and the world-2 trainer on a real loopback group —
// bitwise against the unsharded LAMB.
func TestShardedOptimizerBitwise(t *testing.T) {
	for _, d := range CheckShardedOptimizer() {
		t.Error(d)
	}
}
