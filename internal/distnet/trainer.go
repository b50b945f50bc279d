package distnet

import (
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
	"demystbert/internal/trace"
)

// TrainConfig describes one rank's share of a multi-process training
// run. Every rank must be launched with identical Model, Seed, Steps,
// B, N, BucketBytes, Overlap, and LR — the same contract as real DP
// training, where divergent hyperparameters silently desynchronize the
// replicas.
type TrainConfig struct {
	Rank     int
	World    int
	Addr     string // rank 0's rendezvous address
	Listener net.Listener
	Timeout  time.Duration

	Model model.Config
	Seed  uint64
	Steps int
	B, N  int // per-rank microbatch: global batch is World·B

	BucketBytes int  // gradient bucket size; <=0 means one bucket per ready group
	Overlap     bool // launch each bucket's AllReduce during backward
	LR          float32
	// FixedData repeats the first global batch every step — the
	// convergence smoke (memorizing one batch drives the loss down
	// monotonically, where fresh random batches at these tiny scales need
	// not).
	FixedData bool

	ProbeElems int // link probe size in float32s; 0 disables the probe

	// Trace enables step-scoped span recording on this rank: every rank
	// derives the same per-step trace id locally (trace.StepTraceID), a
	// handshake-time clock exchange measures each worker's offset from
	// rank 0, and at end of run the workers ship their span shards to
	// rank 0, which merges them into one aligned timeline and computes
	// the per-step straggler report (Result.Straggler).
	Trace bool
	// TraceOut, on rank 0 with Trace set, writes the merged multi-rank
	// Perfetto timeline (rank 0's kernel events ride along) to this path.
	TraceOut string

	// WireTrainer, when set, runs after the trainer is constructed and
	// before the first step: the seam a caller uses to reach the trainer
	// Train builds (bertdist's checkpoint snapshots read the weights
	// through it, with ReadWeights). It is a process-local function, never
	// serialized.
	WireTrainer func(t *Trainer) error
}

// Result is one rank's training summary, JSON-serializable so worker
// processes can report to the launcher through a file. Timing means
// exclude the first (warm-up) step when Steps > 1.
type Result struct {
	Rank      int  `json:"rank"`
	World     int  `json:"world"`
	Steps     int  `json:"steps"`
	Buckets   int  `json:"buckets"`
	GradElems int  `json:"grad_elems"`
	Overlap   bool `json:"overlap"`

	Losses []float64 `json:"losses"`

	StepMS    float64 `json:"step_ms"`
	FwdMS     float64 `json:"fwd_ms"`
	BwdMS     float64 `json:"bwd_ms"`
	UpdMS     float64 `json:"upd_ms"`
	CommMS    float64 `json:"comm_ms"`    // gradient reduce-scatters, norm exchange and weight all-gather
	ExposedMS float64 `json:"exposed_ms"` // comm not hidden behind backward: the norm exchange and weight all-gather whole
	// GatherMS is the weight all-gather's time per step: exposed, since
	// the next forward reads what it writes.
	GatherMS float64 `json:"gather_ms"`
	// OptStateBytes is the optimizer state this rank holds at the end of
	// the run: LAMB's m and v for the parameters it owns.
	OptStateBytes int64 `json:"opt_state_bytes"`

	BucketKB    []float64 `json:"bucket_kb"`     // per-bucket payload size
	BucketBwdMS []float64 `json:"bucket_bwd_ms"` // backward segment feeding each bucket

	WireBytesPerStep int64   `json:"wire_bytes_per_step"`
	LinkBandwidth    float64 `json:"link_bandwidth_bytes_per_s"`
	LinkLatencyUS    float64 `json:"link_latency_us"`

	// ClockOffsetUS is this rank's measured clock offset from rank 0
	// (NTP-style min-RTT estimate; zero on rank 0). Straggler is the
	// per-step gating report over the merged, clock-aligned span set —
	// rank 0 only, and only when TrainConfig.Trace was set.
	ClockOffsetUS float64               `json:"clock_offset_us,omitempty"`
	Straggler     []trace.StepStraggler `json:"straggler,omitempty"`
}

// Trainer runs one rank of multi-process data-parallel training:
// local forward/backward into gradients that are views of the bucket
// buffer, a bucketed ring reduce-scatter of them in place (overlapped
// with backward when enabled) that leaves each rank the averaged
// gradients of the parameters it owns, LAMB on those parameters only,
// and a ring all-gather of the updated weights straight into the weight
// buffer every parameter value is a view of. At world 1 it is plain
// training: no buffers, no collectives, LAMB over every parameter.
type Trainer struct {
	G   *Group
	M   *model.BERT
	Ctx *nn.Ctx
	Opt *optim.LAMB

	// Tracer, when non-nil, records step/fwd/bwd/upd/allreduce/gradnorm/
	// allgather.w spans under the deterministic per-step trace id. Set it
	// before the first Step (Train wires it from TrainConfig.Trace).
	Tracer *trace.Tracer

	plan    *Plan
	overlap bool
	inv     float32
	step    int

	// weightsMu is held while a step writes the weights (ReadWeights).
	weightsMu sync.Mutex

	// The sharded update's state (world > 1): this rank's parameters in
	// buffer order, their gradient sums of squares, every parameter's sum
	// of squares in buffer order as two float32 slots each (the norm
	// exchange's buffer and bounds), and the buffer index of each entry of
	// M.Params() — the order LAMB folds its global norm in.
	owned      []*nn.Param
	ss         []float64
	norms      []float32
	normBounds []int
	canon      []int

	// Per-step overlap machinery, reset by Step.
	ready        chan int // bucket indices, fed by the grad hook in launch order
	launched     int
	bwdStart     time.Time
	groupReadyAt []time.Duration   // when each grad group's last gradient landed
	stepSC       trace.SpanContext // current step's span context, read by commLoop
}

// stepStats carries one step's timing decomposition.
type stepStats struct {
	fwd, bwd, upd, comm, exposed, gather time.Duration
	wall                                 time.Duration
	groupReadyAt                         []time.Duration
}

type commStats struct {
	comm time.Duration
	err  error
}

// NewTrainer wires a joined group to a model. The model's GradHook is
// claimed by the trainer, and at world > 1 every parameter's Grad and
// Value are rebound to views of the plan's buffers, values carried over,
// and the update is sharded: this rank's LAMB keeps state for, and
// updates, only the parameters it owns. Ctx.Prof is nil: a caller that
// reads kernel events installs a profiler.
func NewTrainer(g *Group, m *model.BERT, seed uint64, bucketBytes int, overlap bool, lr float32) *Trainer {
	t := &Trainer{
		G:       g,
		M:       m,
		plan:    PlanBuckets(m.GradGroups(), bucketBytes),
		overlap: overlap && g.World() > 1,
		inv:     1 / float32(g.World()),
	}
	owned := t.plan.Elems()
	if g.World() > 1 {
		t.plan.bind(g.World())
		t.shardUpdate()
		owned = t.plan.Own[g.Rank()+1] - t.plan.Own[g.Rank()]
	}
	optStateBytes.Set(float64(2 * 4 * owned)) // LAMB's m and v, FP32
	t.Ctx = &nn.Ctx{
		// Distinct dropout streams per rank (seed + rank·7919), the
		// schedule the serial two-replica reference reproduces.
		RNG:   tensor.NewRNG(seed + uint64(g.Rank())*7919),
		Train: true,
	}
	t.Opt = optim.NewLAMB(lr)
	t.groupReadyAt = make([]time.Duration, len(m.GradGroups()))
	m.GradHook = t.onGradGroup
	return t
}

// shardUpdate sets up this rank's share of the update over the bound plan.
func (t *Trainer) shardUpdate() {
	p, r := t.plan, t.G.Rank()
	t.owned = p.Params[p.OwnParams[r]:p.OwnParams[r+1]]
	t.ss = make([]float64, len(t.owned))
	t.norms = make([]float32, 2*len(p.Params))
	t.normBounds = make([]int, len(p.OwnParams))
	for i, k := range p.OwnParams {
		t.normBounds[i] = 2 * k
	}
	at := make(map[*nn.Param]int, len(p.Params))
	for i, prm := range p.Params {
		at[prm] = i
	}
	for _, prm := range t.M.Params() {
		t.canon = append(t.canon, at[prm])
	}
}

// ReadWeights runs f while no step is writing the weights: the update and
// the all-gather that completes it hold the same lock, so f sees one
// step's weights, whole, on this rank.
func (t *Trainer) ReadWeights(f func(m *model.BERT) error) error {
	t.weightsMu.Lock()
	defer t.weightsMu.Unlock()
	return f(t.M)
}

// Plan exposes the bucket partition (for reporting and tests).
func (t *Trainer) Plan() *Plan { return t.plan }

// onGradGroup runs inside Backward each time a grad group's last
// gradient is produced. It timestamps the group and, when overlap is
// active for this step, releases every bucket whose contents are now
// final. Buckets launch in index order on all ranks — the collective
// order every rank must agree on.
func (t *Trainer) onGradGroup(group int) {
	if group >= 0 && group < len(t.groupReadyAt) {
		t.groupReadyAt[group] = time.Since(t.bwdStart)
	}
	if t.ready == nil {
		return
	}
	for n := t.plan.launchableAfter(group); t.launched < n; t.launched++ {
		t.ready <- t.launched
	}
}

// tag gives each collective a tag unique within the recent window,
// verified by both ends of every ring stream; 24 bits keeps it clear of
// the reserved control/probe ranges. A step issues len(List)+2: bucket i's
// reduce-scatter is i, the norm exchange len(List), the weight all-gather
// len(List)+1.
func (t *Trainer) tag(i int) uint32 {
	return (uint32(t.step)*uint32(len(t.plan.List)+2) + uint32(i)) & 0x00FFFFFF
}

// commLoop drains ready bucket indices, reduce-scattering and averaging
// each in place (the gradients are views of it): the one bucket loop of
// both modes, so overlapped and sequential runs issue the same tagged
// collectives in the same order (the bitwise "overlap vs sequential"
// contract). Overlapped, it runs concurrently with Backward on t.ready;
// the channel send in onGradGroup establishes the happens-before edge
// from the gradient writes, which never touch a released bucket again.
func (t *Trainer) commLoop(ready <-chan int) commStats {
	var cs commStats
	for idx := range ready {
		if cs.err != nil {
			continue // group already failed; just drain
		}
		b := &t.plan.List[idx]
		c0 := time.Now()
		if err := t.G.reduceScatter(t.tag(idx), t.plan.Slice(b), b.Bounds, t.inv); err != nil {
			cs.err = err
			continue
		}
		d := time.Since(c0)
		cs.comm += d
		if t.Tracer != nil {
			// The name trace.Stragglers parses to attribute per-bucket
			// exposed gradient communication.
			t.recordSpan(fmt.Sprintf("allreduce.b%d", idx), c0, d)
		}
		bucketsReduced.Inc()
	}
	return cs
}

// recordSpan logs a span under the current step's root.
func (t *Trainer) recordSpan(name string, start time.Time, d time.Duration) {
	if t.Tracer == nil {
		return
	}
	t.Tracer.Record(trace.Span{
		Trace:  t.stepSC.Trace,
		Parent: t.stepSC.Parent,
		Name:   name,
		Step:   t.step + 1,
		Start:  start,
		Dur:    d,
	})
}

// update applies the step's weight update. At world 1 that is LAMB over
// every parameter. Sharded, it is four moves:
//
//  1. each rank sums the squares of its own, reduced gradients per
//     tensor (float64) and one small all-gather hands every rank all of
//     them, each float64 carried bit-exact in two float32 slots;
//  2. every rank folds them in M.Params() order — the order
//     LAMB.Prepare folds its global norm in — so the clip scale is the
//     unsharded one, identical everywhere;
//  3. LAMB's Apply runs on the owned parameters, in place in W;
//  4. a ring all-gather over W with the ownership bounds copies every
//     owner's updated weights to every rank, verbatim, and the received
//     tensors get a new generation.
func (t *Trainer) update(st *stepStats) error {
	if t.G.World() == 1 {
		t.Opt.Step(t.Ctx, t.M.Params())
		return nil
	}
	ss, err := t.globalSumSquares(st)
	if err != nil {
		return err
	}
	t.Opt.PrepareSumSquares(ss).Apply(t.Ctx, t.owned)
	return t.gatherWeights(st)
}

// globalSumSquares returns the squared global gradient norm, summed in
// M.Params() order from every owner's per-tensor sums (moves 1 and 2).
func (t *Trainer) globalSumSquares(st *stepStats) (float64, error) {
	n0 := time.Now()
	optim.GradSumSquares(t.Ctx, t.owned, t.ss)
	x0 := time.Now()
	base := t.plan.OwnParams[t.G.Rank()]
	for i, v := range t.ss {
		bits := math.Float64bits(v)
		t.norms[2*(base+i)] = math.Float32frombits(uint32(bits))
		t.norms[2*(base+i)+1] = math.Float32frombits(uint32(bits >> 32))
	}
	if err := t.G.AllGather(t.tag(len(t.plan.List)), t.norms, t.normBounds); err != nil {
		return 0, err
	}
	x := time.Since(x0)
	st.comm += x
	st.exposed += x
	var ss float64
	for _, k := range t.canon {
		ss += math.Float64frombits(uint64(math.Float32bits(t.norms[2*k])) | uint64(math.Float32bits(t.norms[2*k+1]))<<32)
	}
	t.recordSpan("gradnorm", n0, time.Since(n0))
	return ss, nil
}

// gatherWeights all-gathers the owners' updated weights into W and gives
// every received tensor a new generation (move 4).
func (t *Trainer) gatherWeights(st *stepStats) error {
	p, r := t.plan, t.G.Rank()
	g0 := time.Now()
	var err error
	t.Ctx.Prof.Time("allgather_weights", profile.CatComm, profile.Update,
		0, int64(len(p.W))*4, func() {
			err = t.G.AllGather(t.tag(len(p.List)+1), p.W, p.Own)
		})
	if err != nil {
		return err
	}
	st.gather = time.Since(g0)
	st.comm += st.gather
	st.exposed += st.gather
	t.recordSpan("allgather.w", g0, st.gather)
	for _, prm := range p.Params[:p.OwnParams[r]] {
		prm.BumpGen()
	}
	for _, prm := range p.Params[p.OwnParams[r+1]:] {
		prm.BumpGen()
	}
	return nil
}

// Step trains one iteration on this rank's batch shard and returns the
// local loss plus the step's timing decomposition.
func (t *Trainer) Step(b *data.Batch) (float64, stepStats, error) {
	var st stepStats
	if err := t.G.errNow(); err != nil {
		return 0, st, err
	}
	// Steps are 1-based in the trace so trace.Stragglers's zero-step
	// filter never eats real data. Every rank derives the same trace id
	// locally; the root span id is minted here and children hang off it.
	stepIdx := t.step + 1
	var rootID trace.SpanID
	if t.Tracer != nil {
		t.stepSC = t.Tracer.FixedTrace(trace.StepTraceID(stepIdx))
		rootID = t.Tracer.NewSpanID()
		t.stepSC.Parent = rootID
		t.Ctx.Span = t.stepSC
	}
	stepStart := time.Now()
	t.Ctx.Prof.BeginIteration()

	fwdStart := time.Now()
	loss := t.M.Forward(t.Ctx, b)
	st.fwd = time.Since(fwdStart)

	var done chan commStats
	if t.overlap {
		t.ready = make(chan int, len(t.plan.List))
		t.launched = 0
		done = make(chan commStats, 1)
		go func() { done <- t.commLoop(t.ready) }()
	}
	t.bwdStart = time.Now()
	t.M.Backward(t.Ctx)
	bwdEnd := time.Now()
	st.bwd = bwdEnd.Sub(t.bwdStart)

	if t.G.World() > 1 {
		var cs commStats
		if t.overlap {
			close(t.ready)
			cs = <-done
			t.ready = nil
			st.exposed = time.Since(bwdEnd)
		} else {
			// Sequential: every bucket, in index order, after backward — all
			// communication is exposed.
			all := make(chan int, len(t.plan.List))
			for i := range t.plan.List {
				all <- i
			}
			close(all)
			cs = t.commLoop(all)
			st.exposed = cs.comm
		}
		if cs.err != nil {
			return 0, st, cs.err
		}
		st.comm = cs.comm
	}

	updStart := time.Now()
	t.weightsMu.Lock()
	err := t.update(&st)
	t.weightsMu.Unlock()
	if err != nil {
		return 0, st, err
	}
	t.M.ZeroGrads()
	st.upd = time.Since(updStart)

	st.wall = time.Since(stepStart)
	if t.Tracer != nil {
		tid := t.stepSC.Trace
		phase := func(name string, start time.Time, d time.Duration) {
			t.Tracer.Record(trace.Span{
				Trace: tid, Parent: rootID, Name: name,
				Step: stepIdx, Start: start, Dur: d,
			})
		}
		phase("fwd", fwdStart, st.fwd)
		phase("bwd", t.bwdStart, st.bwd)
		phase("upd", updStart, st.upd)
		t.Tracer.Record(trace.Span{
			Trace: tid, ID: rootID, Name: "step",
			Step: stepIdx, Start: stepStart, Dur: st.wall,
		})
	}
	st.groupReadyAt = append([]time.Duration(nil), t.groupReadyAt...)
	t.step++

	stepsTotal.Inc()
	stepSeconds.Observe(st.wall.Seconds())
	commSeconds.Observe(st.comm.Seconds())
	exposedSeconds.Observe(st.exposed.Seconds())
	if hidden := st.comm - st.exposed; hidden > 0 {
		hiddenSeconds.Observe(hidden.Seconds())
	}
	return loss, st, nil
}

// Train runs a full multi-process training session for one rank: join
// the group, train cfg.Steps steps on deterministic synthetic data, and
// return the rank's Result plus the final model (for checkpointing and
// parity checks). Every rank generates the full global batch sequence
// from the shared data seed and consumes its own shard — a schedule a
// serial reference can replay, which is what makes world=2 runs
// bit-identical to two replicas stepped one after the other. Train leaves
// the process's scheduler as it finds it: at GOMAXPROCS=1 the sender
// goroutine runs only at preemption points of the compute, so overlap
// hides nothing, and that is what a one-core run measures.
func Train(cfg TrainConfig) (*Result, *model.BERT, error) {
	if cfg.Steps < 1 || cfg.B < 1 || cfg.N < 1 {
		return nil, nil, fmt.Errorf("distnet: need positive steps/B/N, got %d/%d/%d", cfg.Steps, cfg.B, cfg.N)
	}
	lr := cfg.LR
	if lr == 0 {
		lr = 0.01
	}
	g, err := Join(Config{
		Rank: cfg.Rank, World: cfg.World, Addr: cfg.Addr,
		Listener: cfg.Listener, Timeout: cfg.Timeout,
	})
	if err != nil {
		return nil, nil, err
	}
	defer g.Close()

	m, err := model.New(cfg.Model, cfg.Seed) // same seed everywhere: identical init
	if err != nil {
		return nil, nil, err
	}
	t := NewTrainer(g, m, cfg.Seed, cfg.BucketBytes, cfg.Overlap, lr)
	if cfg.Trace && cfg.TraceOut != "" && g.Rank() == 0 {
		// The merged timeline's kernel track is the profiler's only
		// reader, so no other rank or run keeps one event per kernel.
		t.Ctx.Prof = profile.New()
	}
	if cfg.WireTrainer != nil {
		if err := cfg.WireTrainer(t); err != nil {
			return nil, nil, fmt.Errorf("distnet: wiring trainer: %w", err)
		}
	}

	res := &Result{
		Rank: g.Rank(), World: g.World(), Steps: cfg.Steps,
		Buckets: len(t.plan.List), GradElems: t.plan.Elems(),
		Overlap: t.overlap,
	}
	for i := range t.plan.List {
		res.BucketKB = append(res.BucketKB, float64(t.plan.List[i].Len)*4/1024)
	}

	// Clock sync is a collective, so Trace must be set identically on
	// every rank (the launcher guarantees this for -launch runs).
	var clockOff time.Duration
	if cfg.Trace {
		t.Tracer = trace.New(g.Rank(), 0)
		t.Ctx.Tracer = t.Tracer
		off, err := g.ClockSync(DefaultClockRounds)
		if err != nil {
			return nil, nil, err
		}
		clockOff = off
		res.ClockOffsetUS = float64(off) / float64(time.Microsecond)
	}

	if g.World() > 1 && cfg.ProbeElems > 0 {
		const probeRounds = 3
		bw, lat, err := g.ProbeLink(cfg.ProbeElems, probeRounds)
		if err != nil {
			return nil, nil, fmt.Errorf("distnet: link probe: %w", err)
		}
		res.LinkBandwidth = bw
		res.LinkLatencyUS = float64(lat) / float64(time.Microsecond)
	}

	gen := data.NewGenerator(cfg.Model.Vocab, 0.15, cfg.Seed+1000003)
	txBefore, rxBefore := g.WireBytes()
	var acc stepStats
	bucketBwd := make([]float64, len(t.plan.List))
	measured := 0
	var fixed *data.Batch
	for step := 0; step < cfg.Steps; step++ {
		// Align step starts across ranks. Real DP steps are already
		// implicitly synced by the gradient collective; the explicit
		// barrier stops a fast rank from racing into the next forward
		// while peers still drain, which on a shared host would bill
		// peer compute time as exposed communication. Blocked ranks
		// sleep in a socket read — they cost no CPU.
		b0 := time.Now()
		if err := g.Barrier(); err != nil {
			return nil, nil, err
		}
		if t.Tracer != nil {
			t.Tracer.Record(trace.Span{
				Trace: trace.StepTraceID(step + 1), Name: "barrier",
				Step: step + 1, Start: b0, Dur: time.Since(b0),
			})
		}
		// Generate the whole global batch, keep this rank's shard: every
		// rank advances the shared generator identically.
		mine := fixed
		if mine == nil {
			for r := 0; r < g.World(); r++ {
				b := gen.Next(cfg.B, cfg.N)
				if r == g.Rank() {
					mine = b
				}
			}
			if cfg.FixedData {
				fixed = mine
			}
		}
		loss, st, err := t.Step(mine)
		if err != nil {
			return nil, nil, err
		}
		res.Losses = append(res.Losses, loss)
		if step == 0 && cfg.Steps > 1 {
			continue // warm-up: pack caches, conn scratches, page faults
		}
		acc.fwd += st.fwd
		acc.bwd += st.bwd
		acc.upd += st.upd
		acc.comm += st.comm
		acc.exposed += st.exposed
		acc.gather += st.gather
		acc.wall += st.wall
		prev := time.Duration(0)
		for i := range t.plan.List {
			at := st.groupReadyAt[t.plan.List[i].ReadyGroup]
			if at > prev {
				bucketBwd[i] += float64(at-prev) / float64(time.Millisecond)
				prev = at
			}
		}
		measured++
	}
	if measured > 0 {
		ms := func(d time.Duration) float64 {
			return float64(d) / float64(time.Millisecond) / float64(measured)
		}
		res.StepMS, res.FwdMS, res.BwdMS = ms(acc.wall), ms(acc.fwd), ms(acc.bwd)
		res.UpdMS, res.CommMS, res.ExposedMS = ms(acc.upd), ms(acc.comm), ms(acc.exposed)
		res.GatherMS = ms(acc.gather)
		for i := range bucketBwd {
			res.BucketBwdMS = append(res.BucketBwdMS, bucketBwd[i]/float64(measured))
		}
		tx, rx := g.WireBytes()
		res.WireBytesPerStep = (tx - txBefore + rx - rxBefore) / int64(cfg.Steps)
	}
	res.OptStateBytes = t.Opt.StateBytes()

	// Ship span shards home: workers attach their measured clock offset
	// so rank 0 can merge every rank onto one aligned timeline, derive
	// the straggler report, and (optionally) write the Perfetto file with
	// its own kernel events riding along on a separate track.
	if t.Tracer != nil {
		sh := trace.Shard{Rank: g.Rank(), Offset: clockOff, Spans: t.Tracer.Spans()}
		if g.Rank() == 0 {
			shards, err := g.GatherTraceShards(sh)
			if err != nil {
				return nil, nil, err
			}
			merged := trace.Merge(shards)
			res.Straggler = trace.Stragglers(merged)
			if cfg.TraceOut != "" {
				f, err := os.Create(cfg.TraceOut)
				if err != nil {
					return nil, nil, fmt.Errorf("distnet: trace out: %w", err)
				}
				werr := trace.WriteChromeTrace(f, merged, t.Ctx.Prof.Events())
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					return nil, nil, fmt.Errorf("distnet: writing trace: %w", werr)
				}
			}
		} else if err := g.SendTraceShard(sh); err != nil {
			return nil, nil, err
		}
	}

	// Keep the group alive until every rank is done training, so nobody
	// tears the ring down under a peer still mid-collective.
	if err := g.Barrier(); err != nil {
		return nil, nil, err
	}
	return res, m, nil
}
