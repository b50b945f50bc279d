package distnet

import (
	"fmt"
	"net"
	"os"
	"runtime"
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

	ProbeElems  int // link probe size in float32s; 0 disables the probe
	ProbeRounds int

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
	// before the first step — the seam callers use to install an OptStep
	// override (e.g. a ZeRO-1 sharded optimizer from internal/memscale,
	// which this package cannot import without a cycle). It is a process-
	// local function, never serialized; every rank must install the same
	// override or the replicas desynchronize.
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
	CommMS    float64 `json:"comm_ms"`    // sum of bucket AllReduce times
	ExposedMS float64 `json:"exposed_ms"` // comm not hidden behind backward

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
// local forward/backward, bucketed ring all-reduce of gradients (overlapped
// with backward when enabled), averaged scatter-back, identical LAMB step.
type Trainer struct {
	G   *Group
	M   *model.BERT
	Ctx *nn.Ctx
	Opt *optim.LAMB

	// Tracer, when non-nil, records step/fwd/bwd/upd/allreduce spans
	// under the deterministic per-step trace id. Set it before the first
	// Step (Train wires it from TrainConfig.Trace).
	Tracer *trace.Tracer

	// OptStep, when non-nil, replaces the default t.Opt.Step call with a
	// custom weight update — the hook a sharded (ZeRO-1) optimizer plugs
	// into. It runs after the gradient all-reduce, so it sees the same
	// averaged gradients on every rank, and it may itself issue
	// collectives (the sharded path all-gathers updated weights).
	OptStep func(ctx *nn.Ctx, params []*nn.Param) error

	plan    *Plan
	overlap bool
	inv     float32
	step    int

	// Per-step overlap machinery, reset by Step.
	ready        chan int // bucket indices, fed by the grad hook in launch order
	launched     int
	bwdStart     time.Time
	groupReadyAt []time.Duration   // when each grad group's last gradient landed
	stepSC       trace.SpanContext // current step's span context, read by commLoop
}

// stepStats carries one step's timing decomposition.
type stepStats struct {
	fwd, bwd, upd, comm, exposed time.Duration
	wall                         time.Duration
	groupReadyAt                 []time.Duration
}

type commStats struct {
	comm time.Duration
	err  error
}

// NewTrainer wires a joined group to a model. The model's GradHook is
// claimed by the trainer.
func NewTrainer(g *Group, m *model.BERT, seed uint64, bucketBytes int, overlap bool, lr float32) *Trainer {
	t := &Trainer{
		G: g,
		M: m,
		Ctx: &nn.Ctx{
			Prof: profile.New(),
			// Distinct dropout streams per rank (seed + rank·7919), the
			// schedule the serial two-replica reference reproduces.
			RNG:   tensor.NewRNG(seed + uint64(g.Rank())*7919),
			Train: true,
		},
		Opt:     optim.NewLAMB(lr),
		plan:    PlanBuckets(m.GradGroups(), bucketBytes),
		overlap: overlap && g.World() > 1,
		inv:     1 / float32(g.World()),
	}
	t.groupReadyAt = make([]time.Duration, len(m.GradGroups()))
	m.GradHook = t.onGradGroup
	return t
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

// bucketTag gives each collective a tag unique within the recent
// window, verified by both ends of every ring stream; 24 bits keeps it
// clear of the reserved control/probe ranges.
func (t *Trainer) bucketTag(idx int) uint32 {
	return (uint32(t.step)*uint32(len(t.plan.List)) + uint32(idx)) & 0x00FFFFFF
}

// commLoop drains ready bucket indices, all-reducing and averaging each:
// the one bucket loop of both modes, so overlapped and sequential runs
// issue the same tagged collectives in the same order (the bitwise
// "overlap vs sequential" contract). Overlapped, it runs concurrently with
// Backward on t.ready; the channel send in onGradGroup establishes the
// happens-before edge from the gradient writes.
func (t *Trainer) commLoop(ready <-chan int) commStats {
	var cs commStats
	for idx := range ready {
		if cs.err != nil {
			continue // group already failed; just drain
		}
		b := &t.plan.List[idx]
		t.plan.Gather(b)
		c0 := time.Now()
		if err := t.G.AllReduce(t.bucketTag(idx), t.plan.Slice(b)); err != nil {
			cs.err = err
			continue
		}
		d := time.Since(c0)
		cs.comm += d
		t.recordComm(idx, c0, d)
		t.plan.ScatterScale(b, t.inv)
		bucketsReduced.Inc()
	}
	return cs
}

// recordComm logs one bucket's AllReduce as an "allreduce.b<idx>" span
// under the current step's context — the name trace.Stragglers parses to
// attribute per-bucket exposed communication.
func (t *Trainer) recordComm(idx int, start time.Time, d time.Duration) {
	if t.Tracer == nil {
		return
	}
	t.Tracer.Record(trace.Span{
		Trace:  t.stepSC.Trace,
		Parent: t.stepSC.Parent,
		Name:   fmt.Sprintf("allreduce.b%d", idx),
		Step:   t.step + 1,
		Start:  start,
		Dur:    d,
	})
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
	if t.OptStep != nil {
		if err := t.OptStep(t.Ctx, t.M.Params()); err != nil {
			return 0, st, err
		}
	} else {
		t.Opt.Step(t.Ctx, t.M.Params())
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
// bit-identical to two replicas stepped one after the other.
func Train(cfg TrainConfig) (*Result, *model.BERT, error) {
	if cfg.Steps < 1 || cfg.B < 1 || cfg.N < 1 {
		return nil, nil, fmt.Errorf("distnet: need positive steps/B/N, got %d/%d/%d", cfg.Steps, cfg.B, cfg.N)
	}
	lr := cfg.LR
	if lr == 0 {
		lr = 0.01
	}
	if cfg.World > 1 && runtime.GOMAXPROCS(0) < 2 {
		// Give the comm goroutine its own scheduler slot. With a single P
		// it only runs at ~10ms async-preemption boundaries of the
		// backward compute, so buckets barely progress until the drain and
		// overlap hides nothing — the software analog of a GPU needing a
		// separate copy/comm stream.
		runtime.GOMAXPROCS(2)
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
		rounds := cfg.ProbeRounds
		if rounds == 0 {
			rounds = 3
		}
		bw, lat, err := g.ProbeLink(cfg.ProbeElems, rounds)
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
		for i := range bucketBwd {
			res.BucketBwdMS = append(res.BucketBwdMS, bucketBwd[i]/float64(measured))
		}
		tx, rx := g.WireBytes()
		res.WireBytesPerStep = (tx - txBefore + rx - rxBefore) / int64(cfg.Steps)
	}

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
