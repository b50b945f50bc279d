package serve

import (
	"errors"
	"io"
	"time"

	"demystbert/internal/profile"
	"demystbert/internal/trace"
)

// The /debug/requests ring: the last requestLogCap answered requests
// with their per-stage latency decomposition. It is always on —
// appending copies one small struct into a preallocated ring under a
// mutex, no allocation — so a trace id from an X-Trace-Id header can be
// looked up even when span recording is off or the request was sampled
// out.

// reqRecord is the compact in-ring form; trace ids stay numeric so the
// hot path never formats strings.
type reqRecord struct {
	trace       trace.TraceID
	start       time.Time
	tokens      int
	preds       int
	batchSize   int
	batchTokens int
	seq         int64
	enqueue     time.Duration
	bucketWait  time.Duration
	assembly    time.Duration
	forward     time.Duration
	respond     time.Duration
	total       time.Duration
	err         string
}

func (e *Engine) logRequest(r reqRecord) {
	e.logMu.Lock()
	if len(e.log) < requestLogCap {
		e.log = append(e.log, r)
	} else {
		e.log[e.logNext] = r
	}
	e.logNext = (e.logNext + 1) % requestLogCap
	e.logMu.Unlock()
}

// RequestRecord is one /debug/requests entry. The five stage columns
// partition TotalMS exactly: enqueue (validation + queue send), bucket
// wait (queued until the scheduler took the request into a batch; the
// name is older than ragged batches and bench/ reads it), batch assembly
// (concatenating the batch's tokens), forward (the model pass), respond
// (delivery back to the waiting request). BatchTokens is the token total
// of the request's batch, all its requests together: the forward's cost
// is a function of it.
type RequestRecord struct {
	TraceID         string    `json:"trace_id"`
	Start           time.Time `json:"start"`
	Tokens          int       `json:"tokens"`
	Predictions     int       `json:"predictions"`
	BatchSize       int       `json:"batch_size"`
	BatchTokens     int       `json:"batch_tokens"`
	BatchSeq        int64     `json:"batch_seq"`
	EnqueueMS       float64   `json:"enqueue_ms"`
	BucketWaitMS    float64   `json:"bucket_wait_ms"`
	BatchAssemblyMS float64   `json:"batch_assembly_ms"`
	ForwardMS       float64   `json:"forward_ms"`
	RespondMS       float64   `json:"respond_ms"`
	TotalMS         float64   `json:"total_ms"`
	Error           string    `json:"error,omitempty"`
}

// RecentRequests returns the retained request log, newest first.
func (e *Engine) RecentRequests() []RequestRecord {
	e.logMu.Lock()
	n := len(e.log)
	recs := make([]reqRecord, 0, n)
	// Ring order: logNext points at the oldest entry once wrapped.
	if n == requestLogCap {
		recs = append(recs, e.log[e.logNext:]...)
		recs = append(recs, e.log[:e.logNext]...)
	} else {
		recs = append(recs, e.log...)
	}
	e.logMu.Unlock()

	ms := func(d time.Duration) float64 { return 1e3 * d.Seconds() }
	out := make([]RequestRecord, 0, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		out = append(out, RequestRecord{
			TraceID:         r.trace.String(),
			Start:           r.start,
			Tokens:          r.tokens,
			Predictions:     r.preds,
			BatchSize:       r.batchSize,
			BatchTokens:     r.batchTokens,
			BatchSeq:        r.seq,
			EnqueueMS:       ms(r.enqueue),
			BucketWaitMS:    ms(r.bucketWait),
			BatchAssemblyMS: ms(r.assembly),
			ForwardMS:       ms(r.forward),
			RespondMS:       ms(r.respond),
			TotalMS:         ms(r.total),
			Error:           r.err,
		})
	}
	return out
}

// FindRequest returns the logged record for a trace id, if retained.
func (e *Engine) FindRequest(id trace.TraceID) (RequestRecord, bool) {
	for _, r := range e.RecentRequests() {
		if r.TraceID == id.String() {
			return r, true
		}
	}
	return RequestRecord{}, false
}

// WriteTrace exports the retained spans plus the kernel events every
// runner captured while tracing as one Perfetto/Chrome timeline (requests
// and batches on the span track, GEMM/attention kernels on the kernel
// track, shared wall clock; a kernel event's iteration is its batch's
// seq).
func (e *Engine) WriteTrace(w io.Writer) error {
	if e.tracer == nil {
		return errors.New("serve: tracing not enabled (Config.Tracer is nil)")
	}
	var events []profile.Event
	for _, r := range e.runners {
		events = append(events, r.ctx.Prof.Events()...)
	}
	return trace.WriteChromeTrace(w, e.tracer.Spans(), events)
}
