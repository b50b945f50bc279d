// Package serve is the frozen-weight inference engine: the ROADMAP's
// "serving heavy traffic" path, characterized the same way the paper
// characterizes training. A single model instance (eval context —
// forward only, no gradients, no optimizer state) sits behind a
// continuous-batching scheduler: concurrent requests are coalesced into
// padding-free (ragged) batches — the concatenation of their real tokens,
// [T, d] activations plus an offsets slice — so every GEMM row is a token
// somebody sent, and the whole weight set is pre-packed at load so
// steady-state traffic runs at 100% pack-cache reuse — the regime the
// generation-counted pack cache (DESIGN.md §7) and the fused epilogues
// (§11) were built for.
//
// Scheduling policy (DESIGN.md §12): one bounded FIFO. The runner blocks
// for the first request, takes what else is queued up to MaxBatch in
// arrival order, runs the batch, and repeats. It is work-conserving — an
// idle engine never holds a request back for company — and the batch in
// flight is the coalescing window: arrivals during a forward pass form
// the next batch. A request waits at most for the batch in flight plus
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
	seq    int64       // runner goroutine only
	batch  data.Ragged // runner goroutine only: assembly buffers, reused

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
	cfg.setDefaults()
	m, err := model.New(cfg.Model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg,
		m:   m,
		// Eval-only context: nil profiler (alloc-free no-op path), no
		// RNG use (dropout inactive), Train permanently false.
		ctx:    &nn.Ctx{Train: false},
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
	e.WarmedPacks = m.WarmupInference(e.ctx.Pool)
	go e.run()
	return e, nil
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
// concurrency across requests is the batching itself. The admission
// channel is the FIFO: a batch is its first MaxBatch entries, whatever
// their lengths.
func (e *Engine) run() {
	defer close(e.done)
	var reqs []*pending
	for {
		var first *pending
		select {
		case first = <-e.queue:
		case <-e.stop:
			// Close's barrier put every admitted request in the queue
			// before stop closed: answer them all, then exit.
			select {
			case first = <-e.queue:
			default:
				return
			}
		}
		reqs = append(reqs[:0], first)
		// Let every caller that is ready to enqueue do so before the
		// batch is cut. On one core the send that woke this goroutine
		// also put it ahead of all other submitters, and without the
		// yield every batch would hold one request however many callers
		// are waiting; with nothing else runnable it costs nothing.
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
		queueDepth.Add(-float64(len(reqs)))
		e.runBatch(reqs)
	}
}

// runBatch concatenates the requests' tokens into one ragged batch, runs
// the forward-only model pass, and delivers per-request predictions.
func (e *Engine) runBatch(reqs []*pending) {
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

	B := len(reqs)
	e.batch.Reset()
	positions := make([][]int, B)
	for s, p := range reqs {
		e.batch.Append(p.tokens, p.segments)
		positions[s] = p.positions
	}
	tokens := len(e.batch.Tokens)

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
	preds := e.m.PredictMaskedAt(e.ctx, &e.batch, positions)
	tf := time.Now()
	bsp.End()
	e.ctx.Span = trace.SpanContext{}

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
