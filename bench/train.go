package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// Fixed seeds: -seed moves only what a user's traffic would move (data,
// requests, arrivals). Weights and dropout stay put so that two seeds
// differ by their inputs alone.
const (
	modelSeed   = 1
	dropoutSeed = 2
	seqLen      = 128 // the paper's Phase-1 length
	lambLR      = 0.01
	maskProb    = 0.15
	// warmupSteps run after the set-up's first step and before the
	// measured window; by then the heap has stopped growing.
	warmupSteps = 2
)

// trainSpec is one training workload: a model, a batch, and the nominal
// step time on the reference box that turns -seconds into a step count.
type trainSpec struct {
	cfg   model.Config
	b, n  int
	stepS float64
	// isoFew limits the isolated-kernel block to three forward GEMMs,
	// for the workload whose GEMMs are not where its time goes.
	isoFew bool
}

func bertConfig(layers, d, heads, dff int) model.Config {
	return model.Config{Vocab: 8192, MaxPos: seqLen, NumLayers: layers,
		DModel: d, Heads: heads, DFF: dff, DropProb: 0.1}
}

var (
	base2 = bertConfig(2, 768, 12, 3072) // BERT-Base width, 21.8 M parameters
	mid4  = bertConfig(4, 256, 4, 1024)  // 5.4 M parameters
	toy   = model.Config{Vocab: 256, MaxPos: 32, NumLayers: 2, DModel: 32, Heads: 2, DFF: 64, DropProb: 0.1}
)

func trainGEMM(smoke bool) trainSpec {
	if smoke {
		return trainSpec{cfg: toy, b: 2, n: 32, stepS: 0.01}
	}
	return trainSpec{cfg: base2, b: 4, n: seqLen, stepS: 1.5}
}

func trainUpdate(smoke bool) trainSpec {
	if smoke {
		return trainSpec{cfg: toy, b: 1, n: 32, stepS: 0.01}
	}
	return trainSpec{cfg: mid4, b: 1, n: seqLen, stepS: 0.27, isoFew: true}
}

// trainRig is one single-process trainer.
type trainRig struct {
	m   *model.BERT
	opt *optim.LAMB
	ctx *nn.Ctx
	gen *data.Generator
}

func newTrainRig(spec trainSpec, dataSeed uint64) (*trainRig, error) {
	m, err := model.New(spec.cfg, modelSeed)
	if err != nil {
		return nil, err
	}
	return &trainRig{
		m:   m,
		opt: optim.NewLAMB(lambLR),
		ctx: &nn.Ctx{RNG: tensor.NewRNG(dropoutSeed), Train: true},
		gen: data.NewGenerator(spec.cfg.Vocab, maskProb, dataSeed),
	}, nil
}

// stepTimes is one iteration's decomposition, timed from outside.
type stepTimes struct {
	start, end         time.Time
	fwd, bwd, upd, zer time.Duration
}

func (t stepTimes) wall() time.Duration { return t.end.Sub(t.start) }

// settleHeap collects garbage between iterations. Without it the heap
// keeps growing for the first five or so steps of a 1.4 GB workload, and
// on the reference VM a first-touch page fault inside a parallel kernel
// costs 25–50 µs: single steps took 2–9 s instead of 1.5 s, at random.
// With it the heap reaches its final size by the second step. The
// collection runs in the gap between steps, so it is in tokens_per_s and
// not in op_ms.
func settleHeap() { runtime.GC() }

// step runs Forward → Backward → LAMB.Step → ZeroGrads on an already
// generated batch, recording one span per call when rec is non-nil.
func (r *trainRig) step(b *data.Batch, rec *recorder, parent, op int) (float64, stepTimes) {
	var t stepTimes
	t.start = time.Now()
	loss := r.m.Forward(r.ctx, b)
	t1 := time.Now()
	r.m.Backward(r.ctx)
	t2 := time.Now()
	r.opt.Step(r.ctx, r.m.Params())
	t3 := time.Now()
	r.m.ZeroGrads()
	t.end = time.Now()
	t.fwd, t.bwd, t.upd, t.zer = t1.Sub(t.start), t2.Sub(t1), t3.Sub(t2), t.end.Sub(t3)
	rec.add(parent, op, "model.fwd", t.start, t1)
	rec.add(parent, op, "model.bwd", t1, t2)
	rec.add(parent, op, "optim.step", t2, t3)
	rec.add(parent, op, "model.zero_grads", t3, t.end)
	return loss, t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseSamples collects the per-step timings of a measured window.
type phaseSamples struct {
	step, gen, fwd, bwd, upd, zer []float64
}

func (p *phaseSamples) add(gen time.Duration, t stepTimes) {
	p.step = append(p.step, ms(t.wall()))
	p.gen = append(p.gen, ms(gen))
	p.fwd = append(p.fwd, ms(t.fwd))
	p.bwd = append(p.bwd, ms(t.bwd))
	p.upd = append(p.upd, ms(t.upd))
	p.zer = append(p.zer, ms(t.zer))
}

// catTotals sums profiler categories over the traced steps.
type catTotals struct {
	steps int
	by    map[profile.Category]profile.Stat
	phase map[profile.Phase]profile.Stat
	total profile.Stat
}

func (c *catTotals) add(s profile.Summary) {
	if c.by == nil {
		c.by = map[profile.Category]profile.Stat{}
		c.phase = map[profile.Phase]profile.Stat{}
	}
	c.steps++
	for k, v := range s.ByCategory {
		c.by[k] = sumStat(c.by[k], v)
	}
	for k, v := range s.ByPhase {
		c.phase[k] = sumStat(c.phase[k], v)
	}
	c.total = sumStat(c.total, s.Total)
}

func sumStat(a, b profile.Stat) profile.Stat {
	return profile.Stat{Kernels: a.Kernels + b.Kernels, Duration: a.Duration + b.Duration,
		FLOPs: a.FLOPs + b.FLOPs, Bytes: a.Bytes + b.Bytes}
}

func (c *catTotals) group(cats ...profile.Category) profile.Stat {
	var s profile.Stat
	for _, k := range cats {
		s = sumStat(s, c.by[k])
	}
	return s
}

func runTrain(e *env, spec trainSpec) error {
	res := e.res
	var rig *trainRig
	var firstLoss []float64
	err := e.setUp(func() (err error) {
		if rig, err = newTrainRig(spec, e.seed); err != nil {
			return err
		}
		// The first step belongs to set-up: it allocates optimizer
		// state and builds every weight pack for the first time.
		loss, _ := rig.step(rig.gen.Next(spec.b, spec.n), nil, 0, 0)
		firstLoss = append(firstLoss, loss)
		return nil
	}, func() { rig = nil })
	if err != nil {
		return err
	}
	losses := []float64{firstLoss[len(firstLoss)-1]}
	same := true
	for _, l := range firstLoss {
		same = same && math.Float64bits(l) == math.Float64bits(firstLoss[0])
	}
	res.check("deterministic_setup", same, "first-step loss of %d identical set-ups: %v", len(firstLoss), firstLoss)

	for i := 0; i < warmupSteps; i++ {
		settleHeap()
		loss, _ := rig.step(rig.gen.Next(spec.b, spec.n), nil, 0, 0)
		losses = append(losses, loss)
	}

	// The traced run interleaves untraced and traced steps so that the
	// profiler's cost is read inside one process, one step apart.
	n := e.count(spec.stepS, 3)
	total := n
	if e.traced {
		total = 2 * n
	}
	var plain, prof phaseSamples
	var cats catTotals
	profiler := profile.New()
	obs0, rt0 := snapObs(), readRuntime()
	winStart := time.Now()
	for i := 0; i < total && !e.overrun(winStart, i); i++ {
		settleHeap()
		tracedStep := e.traced && i%2 == 1
		rig.ctx.Prof = nil
		if tracedStep {
			profiler.Reset()
			profiler.BeginIteration()
			rig.ctx.Prof = profiler
		}
		g0 := time.Now()
		b := rig.gen.Next(spec.b, spec.n)
		g1 := time.Now()
		var rec *recorder
		root := 0
		if tracedStep {
			rec = e.rec
			root = rec.reserve(0, i, "iteration", g0)
			rec.add(root, i, "data.gen", g0, g1)
		}
		loss, t := rig.step(b, rec, root, i)
		rec.finish(root, t.end)
		losses = append(losses, loss)
		res.Attempted++
		if !finite(loss) {
			res.Failed++
		}
		if tracedStep {
			prof.add(g1.Sub(g0), t)
			cats.add(profiler.Summarize())
		} else {
			plain.add(g1.Sub(g0), t)
		}
	}
	wall := time.Since(winStart)
	rt1, obs1 := readRuntime(), snapObs()
	rig.ctx.Prof = nil
	total = res.Attempted // fewer than planned only if the overrun guard tripped

	res.Losses = losses
	res.Raw.OpMS = plain.step
	res.Raw.Tokens = int64(spec.b * spec.n * total)
	res.Raw.WallS = wall.Seconds()
	checkLosses(e, losses)

	ph := &plain
	if e.traced {
		ph = &prof
	}
	emitPhases(res, ph)
	emitRuntime(res, rt0, rt1, total)
	emitKernelCounters(res, obs0, obs1, total)
	if !e.traced {
		return nil
	}

	stepP50 := median(prof.step)
	res.layer("telemetry.profiler_overhead_pct", 100*(stepP50/median(plain.step)-1), len(prof.step),
		"traced ÷ untraced step p50 − 1, steps interleaved in one process")
	host := probeHost(e)
	emitKernelCategories(res, &cats, mean(prof.step), host)
	emitISO(e, spec)
	emitEncoderLayer(e, spec, median(prof.fwd)+median(prof.bwd))
	emitPerfModel(res, spec, host, &cats, stepP50)

	// The phases are timed back to back, so whatever the iteration
	// spans have left over is the benchmark's own glue.
	var iter time.Duration
	for _, s := range e.rec.spans {
		if s.Name == "iteration" {
			iter += s.End.Sub(s.Start)
		}
	}
	glue := selfByName(e.rec.spans)["iteration"]
	cover := 1 - float64(glue)/float64(iter)
	res.check("phase_coverage", cover >= 0.98, "data.gen+fwd+bwd+optim+zero_grads cover %.2f%% of the iteration spans (self time left: %.3f ms)",
		100*cover, ms(glue))
	return nil
}

// emitPhases reports the per-phase medians of a window.
func emitPhases(res *result, p *phaseSamples) {
	n := len(p.step)
	res.layer("data.gen_ms_per_step", mean(p.gen), n)
	res.layer("model.fwd_ms_p50", median(p.fwd), n)
	res.layer("model.bwd_ms_p50", median(p.bwd), n)
	res.layer("model.zero_grads_ms_p50", median(p.zer), n)
	res.layer("optim.step_ms_p50", median(p.upd), n)
	res.layer("optim.share", median(p.upd)/median(p.step), n)
}

// checkLosses is the training correctness check: every loss finite, and
// the sequence equal to the recorded one for this workload and seed.
func checkLosses(e *env, losses []float64) {
	res := e.res
	bad := 0
	for _, l := range losses {
		if !finite(l) {
			bad++
		}
	}
	res.check("losses_finite", bad == 0, "%d of %d losses non-finite; first %.4f last %.4f", bad, len(losses), losses[0], losses[len(losses)-1])
	if e.smoke {
		return
	}
	g, err := loadGolden(e.goldenPath)
	if err != nil {
		res.check("golden", false, "%v", err)
		return
	}
	if e.updateGolden {
		g.set(res.Workload, e.seed, losses)
		if err := g.save(e.goldenPath); err != nil {
			res.check("golden", false, "%v", err)
			return
		}
		res.check("golden", true, "rewrote %d losses for seed %d", len(losses), e.seed)
		return
	}
	want, ok := g.get(res.Workload, e.seed)
	if !ok {
		// A seed nobody recorded has nothing to compare against; the
		// untrained model's loss is still known to within a few percent.
		lnV := math.Log(float64(base2.Vocab)) + math.Ln2
		res.check("golden", math.Abs(losses[0]-lnV)/lnV < 0.25,
			"no recorded sequence for seed %d; first loss %.4f against ln(vocab)+ln 2 = %.4f", e.seed, losses[0], lnV)
		return
	}
	n := min(len(want), len(losses))
	worst, at := 0.0, 0
	for i := 0; i < n; i++ {
		if d := math.Abs(losses[i]-want[i]) / math.Abs(want[i]); d > worst {
			worst, at = d, i
		}
	}
	res.check("golden", n > 0 && worst <= 1e-3, "%d steps against the recorded sequence, worst relative difference %.2e at step %d", n, worst, at)
}

func describe(spec trainSpec) string {
	c := spec.cfg
	return fmt.Sprintf("L%d d%d h%d ff%d V%d B%d N%d", c.NumLayers, c.DModel, c.Heads, c.DFF, c.Vocab, spec.b, spec.n)
}
