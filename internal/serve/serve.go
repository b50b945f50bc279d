// Package serve is the frozen-weight inference engine: the ROADMAP's
// "serving heavy traffic" path, characterized the same way the paper
// characterizes training. A single model instance (eval context —
// forward only, no gradients, no optimizer state) sits behind a
// continuous-batching scheduler: concurrent requests are coalesced into
// dynamic batches by length bucket, padded requests carry per-request
// additive key-padding masks (the [B, n] mask plumbing in nn.attention,
// here in its first production role), and the whole weight set is
// pre-packed at load so steady-state traffic runs at 100% pack-cache
// reuse — the regime the generation-counted pack cache (DESIGN.md §7)
// and the int8/fused inference kernels (§11) were built for.
//
// Scheduling policy (DESIGN.md §12): requests enter one bounded queue;
// the runner drains it opportunistically, groups requests by the
// smallest configured bucket length that fits, and dispatches a bucket
// the moment it holds MaxBatch requests — or when its oldest request
// has waited MaxDelay, which bounds starvation for odd-length
// stragglers. While a forward pass runs, arrivals accumulate in the
// queue and form the next batch: continuous batching without a separate
// batching thread.
package serve

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
	"demystbert/internal/trace"
)

// Admission errors. BadRequestError (a distinct type) marks client
// mistakes; these two mark server state.
var (
	// ErrOverloaded: the bounded queue is full — backpressure, HTTP 429.
	ErrOverloaded = errors.New("serve: queue full")
	// ErrDraining: the engine is shutting down — HTTP 503.
	ErrDraining = errors.New("serve: engine draining")
)

// BadRequestError reports a malformed request (HTTP 400).
type BadRequestError struct{ Reason string }

func (e *BadRequestError) Error() string { return "serve: bad request: " + e.Reason }

// Config parameterizes an Engine.
type Config struct {
	// Model is the network geometry; weights are built deterministically
	// from Seed (a real deployment would load a checkpoint via
	// model/serialize — the serving path is identical from there on).
	Model model.Config
	Seed  uint64

	// Int8 runs the frozen-weight Linear forwards on the quantized engine
	// (nn.Ctx.Int8) instead of f32 with fused epilogues. It is a property
	// of this engine's context, so engines of both kinds can share a
	// process; the warmup pre-pack builds the matching packs.
	Int8 bool

	// MaxBatch caps requests per dynamic batch (default 32).
	MaxBatch int
	// MaxDelay bounds how long a pending request may wait for its
	// bucket to fill before the scheduler dispatches a partial batch
	// (default 2ms). This is the starvation bound.
	MaxDelay time.Duration
	// Buckets are the ascending sequence lengths requests are padded up
	// to (default: powers of two from 8 through Model.MaxPos). A
	// request longer than the last bucket is rejected.
	Buckets []int
	// QueueCap bounds the admission queue (default 4096); a full queue
	// rejects with ErrOverloaded.
	QueueCap int

	// Tracer, when non-nil, enables request-scoped tracing: every
	// sampled request records enqueue/bucket-wait/batch-assembly/
	// forward/respond stage spans, batches record a span the model's
	// phase spans nest under, and kernel events are captured alongside
	// on the same wall clock (WriteTrace exports both). Nil keeps the
	// hot path exactly as before — no clock reads beyond the existing
	// ones, no allocations.
	Tracer *trace.Tracer
}

func (c *Config) setDefaults() error {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
	if len(c.Buckets) == 0 {
		for b := 8; b < c.Model.MaxPos; b *= 2 {
			c.Buckets = append(c.Buckets, b)
		}
		c.Buckets = append(c.Buckets, c.Model.MaxPos)
	}
	sort.Ints(c.Buckets)
	for i, b := range c.Buckets {
		if b < 1 || b > c.Model.MaxPos {
			return fmt.Errorf("serve: bucket %d outside [1, MaxPos=%d]", b, c.Model.MaxPos)
		}
		if i > 0 && b == c.Buckets[i-1] {
			return fmt.Errorf("serve: duplicate bucket %d", b)
		}
	}
	return nil
}

// Request is one tokenized inference request: predict the token id at
// every [MASK] position.
type Request struct {
	// Tokens are the input ids; positions holding data.MaskID are the
	// prediction targets.
	Tokens []int `json:"tokens"`
	// Segments are optional sentence A/B ids (all zero when omitted).
	Segments []int `json:"segments,omitempty"`
	// TraceID, when non-zero, adopts a caller-supplied trace identity
	// (the HTTP layer fills it from the X-Trace-Id request header); zero
	// mints a fresh id. Not part of the JSON body.
	TraceID trace.TraceID `json:"-"`
}

// Prediction is the model's token choice for one masked position.
type Prediction struct {
	Pos   int `json:"pos"`
	Token int `json:"token"`
}

// Response carries the predictions plus the scheduling telemetry the
// latency-vs-throughput frontier is built from.
type Response struct {
	Predictions []Prediction `json:"predictions"`
	// Bucket is the padded sequence length the request was batched at;
	// BatchSize the number of requests in its dynamic batch.
	Bucket    int     `json:"bucket"`
	BatchSize int     `json:"batch_size"`
	QueueMS   float64 `json:"queue_ms"`
	TotalMS   float64 `json:"total_ms"`
	// TraceID is the request's trace identity (also the X-Trace-Id
	// response header); /debug/requests decomposes its latency by stage.
	TraceID string `json:"trace_id"`
}

// pending is one admitted request waiting in the scheduler. enq and tq
// bracket admission; the scheduler's timestamps travel back in result,
// so the five stage durations partition [enq, receive] exactly.
type pending struct {
	tokens    []int
	segments  []int
	positions []int
	bucket    int
	enq       time.Time         // t0: Submit entry
	tq        time.Time         // after the queue send — enqueue stage end
	sc        trace.SpanContext // sampled trace identity (zero = off)
	done      chan result
}

type result struct {
	preds     []Prediction
	batchSize int
	queued    time.Duration
	seq       int64     // batch sequence number
	td        time.Time // batch dispatch (bucket-wait stage end)
	ta        time.Time // forward start (batch-assembly stage end)
	tf        time.Time // forward end
	err       error
}

// Engine is the serving instance: model, scheduler, and admission
// queue. Construct with New, serve HTTP via Handler, stop with Close.
type Engine struct {
	cfg Config
	m   *model.BERT
	ctx *nn.Ctx

	mu     sync.RWMutex // admission vs Close
	closed bool
	queue  chan *pending
	stop   chan struct{}
	done   chan struct{}

	// Tracing state. tracer comes from Config; prof captures kernel
	// events on the same wall clock when tracing is on (nil otherwise,
	// which is the profile package's free path). seq numbers batches —
	// it doubles as the span Step, linking every request in a batch to
	// the batch's kernel events. reqLog is the /debug/requests ring,
	// always on (bounded, no per-entry allocation).
	tracer *trace.Tracer
	prof   *profile.Profiler
	seq    int64 // runner goroutine only

	logMu   sync.Mutex
	log     []reqRecord
	logNext int

	// WarmedPacks counts weight packs built by the load-time warmup.
	WarmedPacks int
}

// requestLogCap bounds the /debug/requests ring.
const requestLogCap = 256

// profEventCap bounds retained kernel events while tracing: past it the
// profiler resets, so a long-lived traced server keeps the most recent
// window rather than growing without bound.
const profEventCap = 1 << 18

// New builds the model, pre-packs every inference weight (so the first
// request is as fast as the thousandth and the pack-cache miss counters
// stay flat in steady state), and starts the scheduler.
func New(cfg Config) (*Engine, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	m, err := model.New(cfg.Model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg,
		m:   m,
		// Eval-only context: nil profiler (alloc-free no-op path), no
		// RNG use (dropout inactive), Train permanently false.
		ctx:    &nn.Ctx{Train: false, Int8: cfg.Int8},
		queue:  make(chan *pending, cfg.QueueCap),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		tracer: cfg.Tracer,
		log:    make([]reqRecord, 0, requestLogCap),
	}
	if e.tracer != nil {
		// Tracing on: capture kernel events on the shared wall clock so
		// WriteTrace can nest them under batch spans.
		e.prof = profile.New()
		e.ctx.Prof = e.prof
		e.ctx.Tracer = e.tracer
	}
	queueCap.Set(float64(cfg.QueueCap))
	e.WarmedPacks = m.WarmupInference(e.ctx)
	go e.run()
	return e, nil
}

// Model exposes the underlying model (tests compare scheduler output
// against direct serial inference on the same weights).
func (e *Engine) Model() *model.BERT { return e.m }

// Config returns the effective (default-filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// bucketFor returns the smallest configured bucket that fits n tokens,
// or -1 when the request is too long.
func (e *Engine) bucketFor(n int) int {
	for _, b := range e.cfg.Buckets {
		if n <= b {
			return b
		}
	}
	return -1
}

// validate admission-checks a request and returns its mask positions.
func (e *Engine) validate(req *Request) ([]int, int, error) {
	n := len(req.Tokens)
	if n == 0 {
		return nil, 0, &BadRequestError{"empty token list"}
	}
	bkt := e.bucketFor(n)
	if bkt < 0 {
		return nil, 0, &BadRequestError{fmt.Sprintf("length %d exceeds max bucket %d", n, e.cfg.Buckets[len(e.cfg.Buckets)-1])}
	}
	if req.Segments != nil && len(req.Segments) != n {
		return nil, 0, &BadRequestError{fmt.Sprintf("%d segments for %d tokens", len(req.Segments), n)}
	}
	var positions []int
	for i, id := range req.Tokens {
		if id < 0 || id >= e.cfg.Model.Vocab {
			return nil, 0, &BadRequestError{fmt.Sprintf("token id %d outside vocab %d", id, e.cfg.Model.Vocab)}
		}
		if req.Segments != nil && req.Segments[i] != 0 && req.Segments[i] != 1 {
			return nil, 0, &BadRequestError{fmt.Sprintf("segment id %d must be 0 or 1", req.Segments[i])}
		}
		if id == data.MaskID {
			positions = append(positions, i)
		}
	}
	return positions, bkt, nil
}

// Submit admits a request and blocks until its batch completes,
// returning the predictions. Safe for arbitrary concurrency; requests
// admitted before Close are always answered (the drain dispatches
// them), never abandoned.
func (e *Engine) Submit(req *Request) (*Response, error) {
	positions, bkt, err := e.validate(req)
	if err != nil {
		reqsRejected.Inc()
		return nil, err
	}
	// Every request gets a trace id (the X-Trace-Id contract holds with
	// tracing off or sampled out); only sampled ones record spans. A
	// caller-supplied id is adopted and always sampled — forced tracing
	// of a specific request is the debugging use case.
	tid := req.TraceID
	var sc trace.SpanContext
	if tid == 0 {
		tid, sc = e.tracer.NewTrace()
	} else {
		sc = e.tracer.FixedTrace(tid)
	}
	var rootID trace.SpanID
	if sc.Sampled() {
		// Pre-mint the request root span's id so the batch span (opened
		// by the scheduler before this span is recorded) can nest under
		// it.
		rootID = e.tracer.NewSpanID()
		sc.Parent = rootID
	}
	p := &pending{
		tokens:    req.Tokens,
		segments:  req.Segments,
		positions: positions,
		bucket:    bkt,
		enq:       time.Now(),
		sc:        sc,
		done:      make(chan result, 1),
	}

	// Admission happens under RLock so Close (write lock) establishes a
	// barrier: every request that saw closed==false is in the buffered
	// queue before stop closes, and the runner's final drain answers it.
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		reqsRejected.Inc()
		return nil, ErrDraining
	}
	select {
	case e.queue <- p:
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		reqsRejected.Inc()
		return nil, ErrOverloaded
	}
	p.tq = time.Now()
	reqsTotal.Inc()
	queueDepth.Add(1)

	r := <-p.done
	if r.err != nil {
		e.logRequest(reqRecord{trace: tid, start: p.enq, tokens: len(p.tokens),
			seq: r.seq, total: time.Since(p.enq), err: r.err.Error()})
		return nil, r.err
	}
	tr := time.Now()
	total := tr.Sub(p.enq)
	ms := 1e3 * total.Seconds()
	latencyMS.ObserveExemplar(ms, uint64(tid))
	latencyWindow.Observe(ms)
	reqsServed.Inc()
	predsTotal.Add(int64(len(r.preds)))

	if sc.Sampled() {
		step := int(r.seq)
		e.tracer.Record(trace.Span{Trace: tid, ID: rootID, Name: "request",
			Step: step, Start: p.enq, Dur: total})
		stage := func(name string, from, to time.Time) {
			e.tracer.Record(trace.Span{Trace: tid, Parent: rootID, Name: name,
				Step: step, Start: from, Dur: to.Sub(from)})
		}
		stage("enqueue", p.enq, p.tq)
		stage("bucket_wait", p.tq, r.td)
		stage("batch_assembly", r.td, r.ta)
		stage("forward", r.ta, r.tf)
		stage("respond", r.tf, tr)
	}
	e.logRequest(reqRecord{
		trace: tid, start: p.enq,
		tokens: len(p.tokens), preds: len(r.preds),
		bucket: bkt, batchSize: r.batchSize, seq: r.seq,
		enqueue: p.tq.Sub(p.enq), bucketWait: r.td.Sub(p.tq),
		assembly: r.ta.Sub(r.td), forward: r.tf.Sub(r.ta),
		respond: tr.Sub(r.tf), total: total,
	})
	return &Response{
		Predictions: r.preds,
		Bucket:      bkt,
		BatchSize:   r.batchSize,
		QueueMS:     1e3 * r.queued.Seconds(),
		TotalMS:     ms,
		TraceID:     tid.String(),
	}, nil
}

// Close stops admission, drains every already-admitted request through
// the model, and waits for the scheduler to exit.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stop)
	<-e.done
}

// run is the scheduler: single goroutine, so the model's per-layer
// saved state is never shared. Throughput parallelism lives inside the
// kernels (the GEMM worker pool fans each forward across cores);
// concurrency across requests is the batching itself.
func (e *Engine) run() {
	defer close(e.done)
	pend := make(map[int][]*pending)
	total := 0

	add := func(p *pending) {
		pend[p.bucket] = append(pend[p.bucket], p)
		total++
	}
	dispatch := func(bkt int) {
		reqs := pend[bkt]
		delete(pend, bkt)
		total -= len(reqs)
		queueDepth.Add(-float64(len(reqs)))
		e.runBatch(bkt, reqs)
	}
	// fullBucket returns a bucket at MaxBatch, oldestBucket the bucket
	// whose head request has waited longest (its deadline governs).
	fullBucket := func() int {
		for bkt, reqs := range pend {
			if len(reqs) >= e.cfg.MaxBatch {
				return bkt
			}
		}
		return -1
	}
	oldestBucket := func() (int, time.Time) {
		best, bestT := -1, time.Time{}
		for bkt, reqs := range pend {
			if best == -1 || reqs[0].enq.Before(bestT) {
				best, bestT = bkt, reqs[0].enq
			}
		}
		return best, bestT
	}

	for {
		// Nothing pending: block for work or shutdown.
		if total == 0 {
			select {
			case p := <-e.queue:
				add(p)
			case <-e.stop:
				e.drainFinal(pend)
				return
			}
		}
		// Opportunistic drain: coalesce everything that arrived while
		// the previous batch was in the model.
	drain:
		for {
			select {
			case p := <-e.queue:
				add(p)
				if len(pend[p.bucket]) >= e.cfg.MaxBatch {
					dispatch(p.bucket)
				}
			default:
				break drain
			}
		}
		if bkt := fullBucket(); bkt >= 0 {
			dispatch(bkt)
			continue
		}
		bkt, oldest := oldestBucket()
		if bkt < 0 {
			continue
		}
		deadline := oldest.Add(e.cfg.MaxDelay)
		wait := time.Until(deadline)
		if wait <= 0 {
			deadlineFlushes.Inc()
			dispatch(bkt)
			continue
		}
		timer := time.NewTimer(wait)
		select {
		case p := <-e.queue:
			timer.Stop()
			add(p)
			if len(pend[p.bucket]) >= e.cfg.MaxBatch {
				dispatch(p.bucket)
			}
		case <-timer.C:
			deadlineFlushes.Inc()
			dispatch(bkt)
		case <-e.stop:
			timer.Stop()
			e.drainFinal(pend)
			return
		}
	}
}

// drainFinal answers everything still pending plus everything sitting
// in the admission buffer — the graceful-shutdown guarantee that no
// admitted request is abandoned.
func (e *Engine) drainFinal(pend map[int][]*pending) {
	for {
		select {
		case p := <-e.queue:
			pend[p.bucket] = append(pend[p.bucket], p)
		default:
			for bkt, reqs := range pend {
				queueDepth.Add(-float64(len(reqs)))
				for len(reqs) > 0 {
					n := min(len(reqs), e.cfg.MaxBatch)
					e.runBatch(bkt, reqs[:n])
					reqs = reqs[n:]
				}
			}
			return
		}
	}
}

// runBatch pads the coalesced requests to the bucket length, builds the
// additive key-padding mask, runs the forward-only model pass, and
// delivers per-request predictions.
func (e *Engine) runBatch(bkt int, reqs []*pending) {
	if len(reqs) == 0 {
		return
	}
	e.seq++
	seq := e.seq
	td := time.Now()
	defer func() {
		// A panic in the model must not kill the scheduler: deliver the
		// failure to this batch's requests and keep serving.
		if r := recover(); r != nil {
			err := fmt.Errorf("serve: batch failed: %v\n%s", r, debug.Stack())
			for _, p := range reqs {
				p.done <- result{err: err, seq: seq}
			}
		}
	}()

	B, n := len(reqs), bkt
	batch := &data.Batch{
		B:        B,
		N:        n,
		Tokens:   make([]int, B*n),
		Segments: make([]int, B*n),
	}
	positions := make([][]int, B)
	real := 0
	padded := false
	for s, p := range reqs {
		base := s * n
		copy(batch.Tokens[base:], p.tokens)
		if p.segments != nil {
			copy(batch.Segments[base:], p.segments)
		}
		// Pad slots keep PadID/segment 0; the mask removes them from
		// every attention sum, and no prediction reads their rows.
		if len(p.tokens) < n {
			padded = true
		}
		positions[s] = p.positions
		real += len(p.tokens)
	}
	if padded {
		batch.Mask = tensor.New(B, n)
		for s, p := range reqs {
			for i := len(p.tokens); i < n; i++ {
				batch.Mask.Set(-1e9, s, i)
			}
		}
	}

	// When any rider is sampled, the batch records a span under that
	// request's root; the model's phase spans (embed, layerN) nest under
	// it, and the profiler's kernel events share the iteration index —
	// that is the request→batch→kernel linkage WriteTrace exports.
	var bsp trace.ActiveSpan
	if e.tracer != nil {
		for _, p := range reqs {
			if p.sc.Sampled() {
				bsp = e.tracer.StartSpan(p.sc, "batch").WithStep(int(seq))
				break
			}
		}
		e.ctx.Span = bsp.Context()
		if e.prof != nil {
			if e.prof.KernelCount() > profEventCap {
				e.prof.Reset()
			}
			e.prof.BeginIteration()
		}
	}

	ta := time.Now()
	preds := e.m.PredictMaskedAt(e.ctx, batch, positions)
	tf := time.Now()
	bsp.End()
	e.ctx.Span = trace.SpanContext{}

	batchesTotal.Inc()
	batchSizeHist.Observe(float64(B))
	goodputTokens.Add(int64(real))
	paddingTokens.Add(int64(B*n - real))
	modelMS.Observe(1e3 * tf.Sub(ta).Seconds())

	for s, p := range reqs {
		queued := td.Sub(p.enq)
		queueWaitMS.Observe(1e3 * queued.Seconds())
		out := make([]Prediction, len(p.positions))
		for i, pos := range p.positions {
			out[i] = Prediction{Pos: pos, Token: preds[s][i]}
		}
		p.done <- result{preds: out, batchSize: B, queued: queued,
			seq: seq, td: td, ta: ta, tf: tf}
	}
}
