package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/distnet"
	"demystbert/internal/model"
	"demystbert/internal/profile"
)

const (
	distWorld       = 2
	distBucketBytes = 128 << 10 // the bertdist default
	// distSlowdown is dist_w2's nominal step time over train_update's:
	// the same model and batch, plus the gradient exchange.
	distSlowdown = 1.3
)

// distRig is a world of ranks living in this process as goroutines, each
// with its own model replica, connected by real TCP sockets.
type distRig struct {
	groups   []*distnet.Group
	trainers []*distnet.Trainer
	gen      []*data.Generator // one per rank, all advanced identically
}

func newDistRig(spec trainSpec, dataSeed uint64) (*distRig, error) {
	groups, err := joinLoopback(distWorld)
	if err != nil {
		return nil, err
	}
	rig := &distRig{groups: groups}
	for _, g := range groups {
		m, err := model.New(spec.cfg, modelSeed) // same seed everywhere: identical replicas
		if err != nil {
			closeGroups(groups)
			return nil, err
		}
		t := distnet.NewTrainer(g, m, dropoutSeed, distBucketBytes, true, lambLR)
		t.Ctx.Prof = nil // NewTrainer installs a profiler; the untraced run has none
		rig.trainers = append(rig.trainers, t)
		rig.gen = append(rig.gen, data.NewGenerator(spec.cfg.Vocab, maskProb, dataSeed))
	}
	return rig, nil
}

func (r *distRig) close() { closeGroups(r.groups) }

// rankStep is what one rank saw of one step.
type rankStep struct {
	loss               float64
	gen, barrier, step time.Duration
	start, end         time.Time
	err                error
}

// step runs one data-parallel iteration on every rank and returns each
// rank's view. Every rank draws the whole global batch and keeps its own
// shard, so the generators stay in lockstep.
func (r *distRig) step(spec trainSpec) []rankStep {
	out := make([]rankStep, len(r.trainers))
	var wg sync.WaitGroup
	for rank := range r.trainers {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			s := &out[rank]
			g0 := time.Now()
			var mine *data.Batch
			for k := range r.trainers {
				b := r.gen[rank].Next(spec.b, spec.n)
				if k == rank {
					mine = b
				}
			}
			b0 := time.Now()
			// Align step starts, as distnet.Train does, so that one
			// rank's compute is not billed as the other's exposed
			// communication.
			if s.err = r.groups[rank].Barrier(); s.err != nil {
				r.close() // unblock the peer
				return
			}
			s.start = time.Now()
			s.loss, _, s.err = r.trainers[rank].Step(mine)
			s.end = time.Now()
			if s.err != nil {
				r.close()
			}
			s.gen, s.barrier, s.step = b0.Sub(g0), s.start.Sub(b0), s.end.Sub(s.start)
		}(rank)
	}
	wg.Wait()
	return out
}

func stepErr(steps []rankStep) error {
	for rank, s := range steps {
		if s.err != nil {
			return fmt.Errorf("rank %d: %w", rank, s.err)
		}
	}
	return nil
}

func runDist(e *env, spec trainSpec) error {
	res := e.res
	spec.stepS *= distSlowdown
	var rig *distRig
	var first []rankStep
	err := e.setUp(func() (err error) {
		if rig, err = newDistRig(spec, e.seed); err != nil {
			return err
		}
		first = rig.step(spec)
		return stepErr(first)
	}, func() { rig.close(); rig = nil })
	if err != nil {
		return err
	}
	defer rig.close()
	losses := []float64{first[0].loss}
	for i := 0; i < warmupSteps; i++ {
		settleHeap()
		warm := rig.step(spec)
		if err := stepErr(warm); err != nil {
			return err
		}
		losses = append(losses, warm[0].loss)
	}

	n := e.count(spec.stepS, 3)
	total := n
	if e.traced {
		total = 2 * n
	}
	profs := make([]*profile.Profiler, distWorld)
	for i := range profs {
		profs[i] = profile.New()
	}
	var plain, traced, gen, barrier, skew []float64
	var cats catTotals
	obs0, rt0 := snapObs(), readRuntime()
	tx0, rx0 := rig.groups[0].WireBytes()
	winStart := time.Now()
	for i := 0; i < total && !e.overrun(winStart, i); i++ {
		settleHeap()
		tracedStep := e.traced && i%2 == 1
		for rank, t := range rig.trainers {
			t.Ctx.Prof = nil
			if tracedStep {
				profs[rank].Reset()
				t.Ctx.Prof = profs[rank]
			}
		}
		steps := rig.step(spec)
		res.Attempted++
		if err := stepErr(steps); err != nil {
			res.Failed++
			return err
		}
		s0 := steps[0]
		if !finite(s0.loss) {
			res.Failed++
		}
		losses = append(losses, s0.loss)
		gen = append(gen, ms(s0.gen))
		barrier = append(barrier, ms(s0.barrier))
		skew = append(skew, math.Abs(ms(steps[1].end.Sub(s0.end))))
		if tracedStep {
			traced = append(traced, ms(s0.step))
			cats.add(profs[0].Summarize())
			root := e.rec.add(0, i, "iteration", s0.start.Add(-s0.barrier-s0.gen), s0.end)
			e.rec.add(root, i, "data.gen", s0.start.Add(-s0.barrier-s0.gen), s0.start.Add(-s0.barrier))
			e.rec.add(root, i, "distnet.barrier", s0.start.Add(-s0.barrier), s0.start)
			e.rec.add(root, i, "distnet.step", s0.start, s0.end)
		} else {
			plain = append(plain, ms(s0.step))
		}
	}
	wall := time.Since(winStart)
	rt1, obs1 := readRuntime(), snapObs()
	tx1, rx1 := rig.groups[0].WireBytes()
	total = res.Attempted // fewer than planned only if the overrun guard tripped

	res.Losses = losses
	res.Raw.OpMS = plain
	res.Raw.Tokens = int64(spec.b * spec.n * distWorld * total)
	res.Raw.WallS = wall.Seconds()
	checkLosses(e, losses)

	// Both replicas saw the same averaged gradients, so their weights
	// must agree to the bit.
	p0, p1 := rig.trainers[0].M.Params(), rig.trainers[1].M.Params()
	differ := 0
	for i := range p0 {
		a, b := p0[i].Value.Data(), p1[i].Value.Data()
		for j := range a {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				differ++
			}
		}
	}
	res.check("ranks_bitwise_equal", differ == 0, "%d weights in %d tensors differ between rank 0 and rank 1 after %d steps",
		differ, len(p0), total)

	steps := float64(total)
	perRankStep := steps * distWorld
	comm := 1e3 * obs0.sumDelta(obs1, "distnet_comm_seconds") / perRankStep
	exposed := 1e3 * obs0.sumDelta(obs1, "distnet_exposed_comm_seconds") / perRankStep
	res.layer("data.gen_ms_per_step", mean(gen), total)
	res.layer("distnet.comm_ms", comm, total, "Σ bucket all-reduce time per step per rank")
	res.layer("distnet.exposed_ms", exposed, total, "communication left after backward ends, per step per rank")
	hidden := 0.0
	if comm > 0 {
		hidden = 1 - exposed/comm
	}
	res.layer("distnet.hidden_share", hidden, total)
	res.layer("distnet.wire_mb", float64(tx1-tx0+rx1-rx0)/steps/1e6, total, "rank 0, sent + received per step")
	res.layer("distnet.allreduces", obs0.delta(obs1, "distnet_allreduces_total")/perRankStep, total)
	res.layer("distnet.buckets", float64(len(rig.trainers[0].Plan().List)), 0)
	res.layer("distnet.barrier_wait_ms_p50", median(barrier), total)
	res.layer("distnet.rank_skew_ms_p50", median(skew), total, "|rank 1 end − rank 0 end|")
	res.layer("distnet.deadline_trips", obs0.delta(obs1, "distnet_deadline_handshake_total", "distnet_deadline_reduce_total",
		"distnet_deadline_gather_total", "distnet_deadline_barrier_total"), total)
	emitRuntime(res, rt0, rt1, total)
	emitKernelCounters(res, obs0, obs1, total*distWorld)
	if !e.traced {
		return nil
	}

	// Trainer.Step is opaque from outside, so the phase split comes from
	// rank 0's profiler: kernel time by phase, not wall time.
	per := func(p profile.Phase) float64 { return ms(cats.phase[p].Duration) / float64(cats.steps) }
	note := "rank 0 kernel time in this phase (Trainer.Step is timed as a whole)"
	res.layer("model.fwd_ms_p50", per(profile.Forward), cats.steps, note)
	res.layer("model.bwd_ms_p50", per(profile.Backward), cats.steps, note)
	res.layer("optim.step_ms_p50", per(profile.Update), cats.steps, note)
	res.layer("optim.share", per(profile.Update)/median(traced), cats.steps)
	res.layer("telemetry.profiler_overhead_pct", 100*(median(traced)/median(plain)-1), len(traced),
		"traced ÷ untraced step p50 − 1, steps interleaved in one process")
	host := probeHost(e)
	emitKernelCategories(res, &cats, mean(traced), host)
	emitISO(e, spec)
	emitPerfModel(res, spec, host, &cats, median(traced))
	return nil
}
