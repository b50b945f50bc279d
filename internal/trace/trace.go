// Package trace is the request- and step-scoped tracing layer of the
// engine: spans with explicit trace/span/parent identity that flow
// through the serving scheduler (one trace per HTTP request), the
// multi-process trainer (one trace per training step, shared by every
// rank), and the model's forward/backward plumbing. It composes with
// internal/profile — spans and kernel events share the wall-clock
// timeline, so a merged Perfetto export nests kernels under the batch or
// step span they ran in — and feeds internal/obs (histogram exemplars
// record the trace ID of their worst recent observation).
//
// Hot-path contract, same discipline as profile's nil-Profiler path: a
// nil *Tracer records nothing and allocates nothing, and a non-nil
// tracer with an unsampled span context (zero SpanContext) is equally
// free. Head-based sampling is decided once per trace at NewTrace; every
// downstream span inherits the decision through the SpanContext it
// nests under.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one request or one distributed training step across
// every process it touches. Zero means "no trace".
type TraceID uint64

// String renders the canonical 16-hex-digit form used in the X-Trace-Id
// header and /debug/requests.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// ParseTraceID inverts String. It rejects anything that is not exactly
// 16 hex digits, so arbitrary client headers cannot smuggle junk ids.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint64(c-'A'+10)
		default:
			return 0, false
		}
	}
	if v == 0 {
		return 0, false
	}
	return TraceID(v), true
}

// SpanID identifies one span within a trace. Zero means "no parent".
type SpanID uint64

// SpanContext is the ambient identity a span is created under: which
// trace it belongs to and which span it nests inside. The zero value
// means "not sampled" — StartSpan under it records nothing.
type SpanContext struct {
	Trace  TraceID
	Parent SpanID
}

// Sampled reports whether spans created under this context record.
func (sc SpanContext) Sampled() bool { return sc.Trace != 0 }

// Span is one completed, recorded span. Start is the recording rank's
// local clock; Merge aligns shards onto rank 0's clock before export.
type Span struct {
	Trace  TraceID       `json:"trace"`
	ID     SpanID        `json:"id"`
	Parent SpanID        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Rank   int           `json:"rank"`
	Step   int           `json:"step,omitempty"` // training step or serving batch seq; 0 = none
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur"`
}

// End returns the span's end time.
func (s Span) End() time.Time { return s.Start.Add(s.Dur) }

// Tracer collects spans into a bounded ring (oldest spans are
// overwritten, so a long-lived server cannot grow without bound) and
// hands out trace/span ids. All methods are safe on a nil receiver and
// for concurrent use.
type Tracer struct {
	rank    int
	ringCap int

	idCtr    atomic.Uint64 // span ids and the trace-id stream
	traceCtr atomic.Uint64 // head-based sampling counter
	sampleN  atomic.Int64  // keep 1 in N traces; 1 = all, 0/neg = none

	mu    sync.Mutex
	ring  []Span
	next  int
	wrap  bool
	seed  uint64
	steps atomic.Int64 // optional step stamp for spans recorded without one
}

// DefaultRingCap bounds a tracer's retained spans when Config leaves it
// zero. At ~100 spans per request this holds the last ~650 requests.
const DefaultRingCap = 1 << 16

// New returns a tracer for the given rank that samples every trace.
// capacity <= 0 uses DefaultRingCap.
func New(rank, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	t := &Tracer{
		rank:    rank,
		ringCap: capacity,
		ring:    make([]Span, 0, capacity),
		seed:    uint64(time.Now().UnixNano()) | 1,
	}
	t.sampleN.Store(1)
	return t
}

// SetSampleEvery keeps 1 in n traces (head-based). n = 1 samples
// everything; n <= 0 disables span recording while trace-id generation
// keeps working (X-Trace-Id stays on). Safe on nil.
func (t *Tracer) SetSampleEvery(n int) {
	if t == nil {
		return
	}
	t.sampleN.Store(int64(n))
}

// Rank returns the rank this tracer stamps on its spans (0 when nil).
func (t *Tracer) Rank() int {
	if t == nil {
		return 0
	}
	return t.rank
}

// splitmix64 is the id mixer: unique inputs give well-distributed,
// never-zero-in-practice outputs with no shared state beyond one atomic.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTrace mints a fresh trace id and applies the head-based sampling
// decision: the returned SpanContext is live when this trace should
// record spans and zero otherwise. The id is always valid — callers
// surface it (response headers, request logs) whether or not the trace
// records. Safe on nil (id still minted from a process-local counter).
func (t *Tracer) NewTrace() (TraceID, SpanContext) {
	if t == nil {
		id := TraceID(splitmix64(fallbackIDCtr.Add(1)))
		if id == 0 {
			id = 1
		}
		return id, SpanContext{}
	}
	id := TraceID(splitmix64(t.seed + t.idCtr.Add(1)))
	if id == 0 {
		id = 1
	}
	n := t.sampleN.Load()
	if n <= 0 {
		return id, SpanContext{}
	}
	if t.traceCtr.Add(1)%uint64(n) != 0 {
		return id, SpanContext{}
	}
	return id, SpanContext{Trace: id}
}

var fallbackIDCtr atomic.Uint64

// NewSpanID mints a span id without opening a span — for callers that
// record spans with explicit timestamps (Record) and need the parent id
// before the children exist. Safe on nil (returns 0).
func (t *Tracer) NewSpanID() SpanID {
	if t == nil {
		return 0
	}
	return SpanID(splitmix64(t.seed ^ t.idCtr.Add(1)))
}

// FixedTrace returns a deterministic sampled context for the given
// trace id — the cross-rank form: every rank of a distributed step
// derives the same id from the step index, so the merged timeline
// correlates their spans without any id exchange.
func (t *Tracer) FixedTrace(id TraceID) SpanContext {
	if t == nil || id == 0 {
		return SpanContext{}
	}
	return SpanContext{Trace: id}
}

// StepTraceID is the deterministic per-training-step trace id every
// rank computes locally.
func StepTraceID(step int) TraceID {
	id := TraceID(splitmix64(0x5354455000000000 + uint64(step)))
	if id == 0 {
		id = 1
	}
	return id
}

// SetStep stamps subsequently recorded spans that carry no explicit step
// with this value. Safe on nil.
func (t *Tracer) SetStep(step int) {
	if t == nil {
		return
	}
	t.steps.Store(int64(step))
}

// ActiveSpan is an in-flight span handle. The zero value (nil tracer or
// unsampled context) is valid and free: End is a no-op.
type ActiveSpan struct {
	t      *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	step   int
	start  time.Time
}

// StartSpan opens a span under sc. When the tracer is nil or sc is
// unsampled it returns the zero handle without reading the clock —
// the zero-alloc, zero-syscall off path.
func (t *Tracer) StartSpan(sc SpanContext, name string) ActiveSpan {
	if t == nil || sc.Trace == 0 {
		return ActiveSpan{}
	}
	return ActiveSpan{
		t:      t,
		trace:  sc.Trace,
		id:     SpanID(splitmix64(t.seed ^ t.idCtr.Add(1))),
		parent: sc.Parent,
		name:   name,
		start:  time.Now(),
	}
}

// Context returns the context child spans should be created under.
func (a ActiveSpan) Context() SpanContext {
	if a.t == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.trace, Parent: a.id}
}

// WithStep stamps the span with a step/batch index.
func (a ActiveSpan) WithStep(step int) ActiveSpan {
	a.step = step
	return a
}

// End closes and records the span. No-op on the zero handle.
func (a ActiveSpan) End() {
	if a.t == nil {
		return
	}
	a.t.record(Span{
		Trace:  a.trace,
		ID:     a.id,
		Parent: a.parent,
		Name:   a.name,
		Step:   a.step,
		Start:  a.start,
		Dur:    time.Since(a.start),
	})
}

// Record appends a fully specified span (explicit start/duration — the
// scheduler path, which derives stage spans from timestamps it already
// took). Zero Trace ids are dropped; safe on nil.
func (t *Tracer) Record(s Span) {
	if t == nil || s.Trace == 0 {
		return
	}
	if s.ID == 0 {
		s.ID = SpanID(splitmix64(t.seed ^ t.idCtr.Add(1)))
	}
	t.record(s)
}

func (t *Tracer) record(s Span) {
	s.Rank = t.rank
	if s.Step == 0 {
		s.Step = int(t.steps.Load())
	}
	t.mu.Lock()
	if len(t.ring) < t.ringCap {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.wrap = true
	}
	t.next = (t.next + 1) % t.ringCap
	t.mu.Unlock()
}

// Spans returns a copy of the retained spans sorted by start time.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.ring...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Reset discards every retained span.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.next = 0
	t.wrap = false
	t.mu.Unlock()
}
