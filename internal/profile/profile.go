// Package profile implements the rocProf-equivalent kernel profiler used by
// the real-execution engine. Every kernel invocation records an Event with
// its wall-clock duration, floating-point operation count, and bytes moved;
// the package then aggregates events into the groupings used throughout the
// paper (per operator category, per training phase, per layer class) so
// that reduced-scale real runs can be compared against the analytical
// model's full-scale breakdowns.
package profile

import (
	"sort"
	"sync"
	"time"
)

// Phase identifies the part of a training iteration an event belongs to,
// mirroring the paper's FWD / BWD / update decomposition (Section 3.2).
type Phase int

const (
	Forward Phase = iota
	Backward
	Update
)

// String returns the phase's display name.
func (p Phase) String() string {
	switch p {
	case Forward:
		return "FWD"
	case Backward:
		return "BWD"
	case Update:
		return "UPD"
	default:
		return "???"
	}
}

// Category classifies a kernel into the operator classes of Figures 3, 4
// and 7 of the paper.
type Category string

const (
	// GEMM classes (Fig. 4 and 6).
	CatLinear    Category = "Linear"    // attention Q/K/V and output projections
	CatAttnBGEMM Category = "AttnBGEMM" // batched attention score / output GEMMs
	CatFCGEMM    Category = "FCGEMM"    // feed-forward FC-1 / FC-2 GEMMs

	// Non-GEMM transformer classes (Fig. 4 and 7).
	CatScaleMaskSM Category = "ScaleMaskDRSM" // scale, mask, dropout, softmax around attention scores
	CatGeLU        Category = "GeLU"
	CatDRRCLN      Category = "DRRCLN" // dropout + residual connection + layer norm

	// Model boundary layers (Fig. 3).
	CatEmbedding Category = "Embedding"
	CatOutput    Category = "Output" // masked-LM + NSP heads and loss

	// Optimizer (Fig. 3 and 7).
	CatLAMBStage1 Category = "LAMBStage1"
	CatLAMBStage2 Category = "LAMBStage2"
	CatOptimizer  Category = "Optimizer" // opgraph's analytical Adam and SGD ops

	// Distributed communication (Fig. 11).
	CatComm Category = "Comm"

	CatOther Category = "Other"
)

// IsGEMM reports whether the category is one of the three GEMM classes.
func (c Category) IsGEMM() bool {
	return c == CatLinear || c == CatAttnBGEMM || c == CatFCGEMM
}

// Event is one recorded kernel invocation.
type Event struct {
	Kernel   string // kernel name, e.g. "sgemm_nt" or "layernorm_fwd"
	Category Category
	Phase    Phase
	Iter     int       // 1-based training iteration (0: outside any iteration)
	Start    time.Time // wall-clock start (zero if recorded manually)
	Duration time.Duration
	FLOPs    int64 // floating-point operations performed
	Bytes    int64 // bytes read + written (algorithmic, not cache traffic)
}

// Profiler collects Events. It is safe for concurrent use. A nil *Profiler
// is valid and records nothing, so instrumented code needs no nil checks.
type Profiler struct {
	mu     sync.Mutex
	events []Event
	iter   int
}

// New returns an empty profiler.
func New() *Profiler { return &Profiler{} }

// Record appends an event, stamping it with the current iteration unless
// the caller set Iter explicitly. Record on a nil profiler is a no-op.
func (p *Profiler) Record(e Event) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if e.Iter == 0 {
		e.Iter = p.iter
	}
	p.events = append(p.events, e)
	p.mu.Unlock()
}

// BeginIteration marks the start of the next training iteration; events
// recorded from now on carry its 1-based index, which the timeline export
// (trace.WriteChromeTrace) attaches to every kernel slice. On a nil
// profiler it is a no-op.
func (p *Profiler) BeginIteration() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.iter++
	p.mu.Unlock()
}

// Time runs f, measuring its wall-clock duration, and records an event with
// the given metadata. On a nil profiler it just runs f.
func (p *Profiler) Time(kernel string, cat Category, phase Phase, flops, bytes int64, f func()) {
	if p == nil {
		f()
		return
	}
	start := time.Now()
	f()
	p.Record(Event{
		Kernel:   kernel,
		Category: cat,
		Phase:    phase,
		Start:    start,
		Duration: time.Since(start),
		FLOPs:    flops,
		Bytes:    bytes,
	})
}

// Reset discards all recorded events and rewinds the iteration counter.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.events = p.events[:0]
	p.iter = 0
	p.mu.Unlock()
}

// Events returns a copy of all recorded events in record order.
func (p *Profiler) Events() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// KernelCount returns the number of recorded events.
func (p *Profiler) KernelCount() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.events)
}

// Stat is an aggregate over a set of events.
type Stat struct {
	Kernels  int
	Duration time.Duration
	FLOPs    int64
	Bytes    int64
}

func (s *Stat) add(e Event) {
	s.Kernels++
	s.Duration += e.Duration
	s.FLOPs += e.FLOPs
	s.Bytes += e.Bytes
}

// Intensity returns the aggregate arithmetic intensity in FLOPs per byte,
// or zero if no bytes were recorded.
func (s Stat) Intensity() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.FLOPs) / float64(s.Bytes)
}

// Summary is the aggregation of a profile by category, by phase, and in
// total.
type Summary struct {
	Total      Stat
	ByCategory map[Category]Stat
	ByPhase    map[Phase]Stat
}

// Summarize aggregates all recorded events.
func (p *Profiler) Summarize() Summary { return Summarize(p.Events()) }

// Summarize aggregates an arbitrary event slice — e.g. one training
// step's suffix of a profiler's event log, which the per-step JSONL
// emitter reports on.
func Summarize(events []Event) Summary {
	s := Summary{
		ByCategory: make(map[Category]Stat),
		ByPhase:    make(map[Phase]Stat),
	}
	for _, e := range events {
		s.Total.add(e)
		cs := s.ByCategory[e.Category]
		cs.add(e)
		s.ByCategory[e.Category] = cs
		ps := s.ByPhase[e.Phase]
		ps.add(e)
		s.ByPhase[e.Phase] = ps
	}
	return s
}

// Share returns category c's fraction of total recorded duration, in
// [0, 1]. It returns zero when nothing was recorded.
func (s Summary) Share(c Category) float64 {
	if s.Total.Duration == 0 {
		return 0
	}
	return float64(s.ByCategory[c].Duration) / float64(s.Total.Duration)
}

// GEMMShare returns the fraction of total duration spent in GEMM
// categories.
func (s Summary) GEMMShare() float64 {
	if s.Total.Duration == 0 {
		return 0
	}
	var d time.Duration
	for c, st := range s.ByCategory {
		if c.IsGEMM() {
			d += st.Duration
		}
	}
	return float64(d) / float64(s.Total.Duration)
}

// Categories returns the categories present in the summary, sorted by
// descending duration (ties broken by name for determinism).
func (s Summary) Categories() []Category {
	cats := make([]Category, 0, len(s.ByCategory))
	for c := range s.ByCategory {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool {
		di, dj := s.ByCategory[cats[i]].Duration, s.ByCategory[cats[j]].Duration
		if di != dj {
			return di > dj
		}
		return cats[i] < cats[j]
	})
	return cats
}
