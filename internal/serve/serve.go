// Package serve is the frozen-weight inference engine: the ROADMAP's
// "serving heavy traffic" path, characterized the same way the paper
// characterizes training. One model instance (forward only, no gradients,
// no optimizer state), its weights pre-packed once at load, sits behind a
// continuous-batching scheduler: concurrent requests are coalesced into
// padding-free (ragged) batches — the concatenation of their real tokens,
// [T, d] activations plus an offsets slice — so every GEMM row is a token
// somebody sent, and steady-state traffic runs at 100% pack-cache reuse —
// the regime the generation-counted pack cache (DESIGN.md §7) and the
// fused epilogues (§11) were built for.
//
// Scheduling policy (DESIGN.md §12): one bounded FIFO and one batch runner
// per core (GOMAXPROCS of them). A runner blocks for the first request,
// takes what else is queued up to MaxBatch in arrival order, runs the
// batch on its own core, and repeats; cutting a batch is serialized, so
// every batch is the head of the queue when it leaves. Each runner has its
// own context — a one-wide kernel pool, a workspace, assembly buffers —
// and all of them run the one shared model, whose evaluation forward
// writes none of its fields. The scheduler is work-conserving — an idle
// runner never holds a request back for company — and the batches in
// flight are the coalescing window: arrivals during forward passes form
// the next batch. A request waits at most for the batches in flight plus
// the requests ahead of it.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
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

	// MaxBatch caps requests per dynamic batch (default 32).
	MaxBatch int
	// MaxDelay is accepted and ignored: there is no coalescing deadline.
	// It remains only because bench/serve.go sets it and bench/ is frozen
	// while a PR claims a gain; it goes when a benchmark PR stops setting it.
	MaxDelay time.Duration
	// Buckets is accepted and ignored, and goes with MaxDelay: batches
	// are ragged, so nothing is padded up to a bucket length. A request
	// may be up to Model.MaxPos tokens long.
	Buckets []int
	// QueueCap bounds the admission queue (default 4096); a full queue
	// rejects with ErrOverloaded.
	QueueCap int

	// Tracer, when non-nil, enables request-scoped tracing: every
	// sampled request records enqueue/bucket-wait (time queued)/
	// batch-assembly/forward/respond stage spans, batches record a span the model's
	// phase spans nest under, and kernel events are captured alongside
	// on the same wall clock (WriteTrace exports both). Nil keeps the
	// hot path exactly as before — no clock reads beyond the existing
	// ones, no allocations.
	Tracer *trace.Tracer
}

func (c *Config) setDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
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
	// BatchSize is the number of requests in the request's dynamic batch.
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
	enq       time.Time         // t0: Submit entry
	tq        time.Time         // after the queue send — enqueue stage end
	sc        trace.SpanContext // sampled trace identity (zero = off)
	done      chan result
}

type result struct {
	preds     []Prediction
	batchSize int
	batchToks int // tokens in the batch, all its requests together
	queued    time.Duration
	seq       int64     // batch sequence number
	td        time.Time // batch dispatch (queue-wait stage end)
	ta        time.Time // forward start (batch-assembly stage end)
	tf        time.Time // forward end
	err       error
}

// Engine is the serving instance: model, scheduler, and admission
// queue. Construct with New, serve HTTP via Handler, stop with Close.
type Engine struct {
	cfg Config
	m   *model.BERT

	mu      sync.RWMutex // admission vs Close
	closed  bool
	queue   chan *pending
	stop    chan struct{}
	running sync.WaitGroup // the runners, until each has exited

	// cut serializes batch cutting: a runner holds it from blocking for a
	// batch's first request until the batch is cut, so each batch is the
	// head of the queue in arrival order. It is held across that blocking
	// receive on purpose — the holder is the queue's only reader, and a
	// runner that took a first request without it could leave the second
	// to another batch — and the receive returns once stop closes. seq
	// numbers batches in cut order; it doubles as the span Step and the
	// kernel events' iteration, linking every request in a batch to the
	// batch's kernel events.
	cut sync.Mutex
	seq int64 // under cut

	runners []*runner

	// beforeForward, when set (tests only, before start), runs in each
	// batch just before its forward pass.
	beforeForward func()

	// tracer comes from Config. reqLog is the /debug/requests ring,
	// always on (bounded, no per-entry allocation).
	tracer *trace.Tracer

	logMu   sync.Mutex
	log     []reqRecord
	logNext int

	// WarmedPacks counts weight packs built by the load-time warmup.
	WarmedPacks int
}

// runner runs one batch at a time on its own core. Everything a batch
// writes is here: the context (a one-wide kernel pool, so a forward never
// forks, the activation workspace and, while tracing, a profiler that
// captures kernel events on the shared wall clock) and the assembly
// buffers, reused from batch to batch.
type runner struct {
	e         *Engine
	ctx       *nn.Ctx
	batch     data.Ragged
	reqs      []*pending
	positions [][]int
	wsBytes   int // the workspace's size as last added to workspaceBytes
}

// requestLogCap bounds the /debug/requests ring.
const requestLogCap = 256

// profEventCap bounds retained kernel events while tracing: past it the
// profiler resets, so a long-lived traced server keeps the most recent
// window rather than growing without bound.
const profEventCap = 1 << 18

// New builds the model, pre-packs every inference weight (so the first
// request is as fast as the thousandth and the pack-cache miss counters
// stay flat in steady state), and starts one batch runner per core.
func New(cfg Config) (*Engine, error) {
	e, err := newEngine(cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// newEngine builds an engine with the given number of runners and does
// not start them.
func newEngine(cfg Config, runners int) (*Engine, error) {
	cfg.setDefaults()
	m, err := model.New(cfg.Model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		m:      m,
		queue:  make(chan *pending, cfg.QueueCap),
		stop:   make(chan struct{}),
		tracer: cfg.Tracer,
		log:    make([]reqRecord, 0, requestLogCap),
	}
	for range max(runners, 1) {
		// Eval-only context: no RNG use (dropout inactive), Train
		// permanently false, and a nil profiler (the alloc-free no-op
		// path) unless tracing is on.
		r := &runner{e: e, ctx: &nn.Ctx{Pool: kernels.NewPool(1)}}
		if e.tracer != nil {
			r.ctx.Prof = profile.New()
			r.ctx.Tracer = e.tracer
		}
		e.runners = append(e.runners, r)
	}
	queueCap.Set(float64(cfg.QueueCap))
	runnersLive.Set(float64(len(e.runners)))
	// The packs are built once, on the process pool, and every runner
	// reads them.
	e.WarmedPacks = m.WarmupInference(nil)
	return e, nil
}

// start launches the runners.
func (e *Engine) start() {
	e.running.Add(len(e.runners))
	for _, r := range e.runners {
		go r.run()
	}
}

// Model exposes the underlying model (tests compare scheduler output
// against direct serial inference on the same weights).
func (e *Engine) Model() *model.BERT { return e.m }

// Config returns the effective (default-filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// validate admission-checks a request and returns its mask positions.
func (e *Engine) validate(req *Request) ([]int, error) {
	n := len(req.Tokens)
	if n == 0 {
		return nil, &BadRequestError{"empty token list"}
	}
	if n > e.cfg.Model.MaxPos {
		return nil, &BadRequestError{fmt.Sprintf("length %d exceeds max position %d", n, e.cfg.Model.MaxPos)}
	}
	if req.Segments != nil && len(req.Segments) != n {
		return nil, &BadRequestError{fmt.Sprintf("%d segments for %d tokens", len(req.Segments), n)}
	}
	var positions []int
	for i, id := range req.Tokens {
		if id < 0 || id >= e.cfg.Model.Vocab {
			return nil, &BadRequestError{fmt.Sprintf("token id %d outside vocab %d", id, e.cfg.Model.Vocab)}
		}
		if req.Segments != nil && req.Segments[i] != 0 && req.Segments[i] != 1 {
			return nil, &BadRequestError{fmt.Sprintf("segment id %d must be 0 or 1", req.Segments[i])}
		}
		if id == data.MaskID {
			positions = append(positions, i)
		}
	}
	return positions, nil
}

// Submit admits a request and blocks until its batch completes,
// returning the predictions. Safe for arbitrary concurrency; requests
// admitted before Close are always answered (the drain dispatches
// them), never abandoned.
func (e *Engine) Submit(req *Request) (*Response, error) {
	positions, err := e.validate(req)
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
		enq:       time.Now(),
		sc:        sc,
		done:      make(chan result, 1),
	}

	// Admission happens under RLock so Close (write lock) establishes a
	// barrier: every request that saw closed==false is in the buffered
	// queue before stop closes, and the runners' final drain answers it.
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
		batchSize: r.batchSize, batchTokens: r.batchToks, seq: r.seq,
		enqueue: p.tq.Sub(p.enq), bucketWait: r.td.Sub(p.tq),
		assembly: r.ta.Sub(r.td), forward: r.tf.Sub(r.ta),
		respond: tr.Sub(r.tf), total: total,
	})
	return &Response{
		Predictions: r.preds,
		BatchSize:   r.batchSize,
		QueueMS:     1e3 * r.queued.Seconds(),
		TotalMS:     ms,
		TraceID:     tid.String(),
	}, nil
}

// Close stops admission, drains every already-admitted request through
// the model, and waits for the runners to exit.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.stop)
	}
	e.mu.Unlock()
	e.running.Wait()
}

// run is one runner's loop: cut the next batch, run it, repeat, until
// the engine is closed and the queue is empty.
func (r *runner) run() {
	defer r.e.running.Done()
	defer func() { workspaceBytes.Add(-float64(r.wsBytes)) }()
	for {
		reqs, seq, ok := r.e.cutBatch(r.reqs[:0])
		if !ok {
			return
		}
		r.reqs = reqs
		queueDepth.Add(-float64(len(reqs)))
		r.runBatch(reqs, seq)
	}
}

// cutBatch appends the next batch to reqs: the first MaxBatch entries of
// the admission channel, which is the FIFO, whatever their lengths. It
// blocks for the first one and reports false once the engine is closed
// and the queue empty. Cutting holds e.cut, so a batch is the head of the
// queue however many runners wait; it returns the batch's seq.
func (e *Engine) cutBatch(reqs []*pending) ([]*pending, int64, bool) {
	e.cut.Lock()
	defer e.cut.Unlock()
	var first *pending
	select {
	case first = <-e.queue:
	case <-e.stop:
		// Close's barrier put every admitted request in the queue
		// before stop closed: answer them all, then exit.
		select {
		case first = <-e.queue:
		default:
			return reqs, 0, false
		}
	}
	reqs = append(reqs, first)
	// Let every caller that is ready to enqueue do so before the batch
	// is cut. On one core the send that woke this goroutine also put it
	// ahead of all other submitters, and without the yield every batch
	// would hold one request however many callers are waiting; with
	// nothing else runnable it costs nothing.
	runtime.Gosched()
fill:
	for len(reqs) < e.cfg.MaxBatch {
		select {
		case p := <-e.queue:
			reqs = append(reqs, p)
		default:
			break fill
		}
	}
	e.seq++
	return reqs, e.seq, true
}

// runBatch concatenates the requests' tokens into one ragged batch, runs
// the forward-only model pass on the runner's context, and delivers
// per-request predictions.
func (r *runner) runBatch(reqs []*pending, seq int64) {
	e, ctx := r.e, r.ctx
	td := time.Now()
	defer func() {
		// A panic in the model must not kill the runner: deliver the
		// failure to this batch's requests and keep serving.
		if rec := recover(); rec != nil {
			err := fmt.Errorf("serve: batch failed: %v\n%s", rec, debug.Stack())
			for _, p := range reqs {
				p.done <- result{err: err, seq: seq}
			}
		}
	}()

	B := len(reqs)
	r.batch.Reset()
	r.positions = r.positions[:0]
	for _, p := range reqs {
		r.batch.Append(p.tokens, p.segments)
		r.positions = append(r.positions, p.positions)
	}
	tokens := len(r.batch.Tokens)

	// When any rider is sampled, the batch records a span under that
	// request's root; the model's phase spans (embed, layerN) nest under
	// it, and the runner's profiler stamps the kernel events with the
	// batch's seq — that is the request→batch→kernel linkage WriteTrace
	// exports, and it holds with several batches in flight.
	var bsp trace.ActiveSpan
	if e.tracer != nil {
		for _, p := range reqs {
			if p.sc.Sampled() {
				bsp = e.tracer.StartSpan(p.sc, "batch").WithStep(int(seq))
				break
			}
		}
		ctx.Span = bsp.Context()
		if ctx.Prof.KernelCount() > profEventCap {
			ctx.Prof.Reset()
		}
		ctx.Prof.SetIteration(int(seq))
	}

	if e.beforeForward != nil {
		e.beforeForward()
	}
	ta := time.Now()
	preds := e.m.PredictMaskedAt(ctx, &r.batch, r.positions)
	tf := time.Now()
	bsp.End()
	ctx.Span = trace.SpanContext{}
	if ws := ctx.WorkspaceBytes(); ws != r.wsBytes {
		workspaceBytes.Add(float64(ws - r.wsBytes))
		r.wsBytes = ws
	}

	batchesTotal.Inc()
	batchSizeHist.Observe(float64(B))
	batchTokensHist.Observe(float64(tokens))
	goodputTokens.Add(int64(tokens))
	modelMS.Observe(1e3 * tf.Sub(ta).Seconds())

	for s, p := range reqs {
		queued := td.Sub(p.enq)
		queueWaitMS.Observe(1e3 * queued.Seconds())
		out := make([]Prediction, len(p.positions))
		for i, pos := range p.positions {
			out[i] = Prediction{Pos: pos, Token: preds[s][i]}
		}
		p.done <- result{preds: out, batchSize: B, batchToks: tokens, queued: queued,
			seq: seq, td: td, ta: ta, tf: tf}
	}
}
