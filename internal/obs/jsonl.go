package obs

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"

	"demystbert/internal/profile"
)

// Peaks carries the roofline ceilings a step's achieved rates are
// compared against. It mirrors internal/device's peak fields as plain
// numbers so this package stays import-light (device sits above the
// kernels that import obs); device.Device.Peaks() fills it.
type Peaks struct {
	// GEMMFLOPS is the peak matrix-pipeline throughput, FLOP/s.
	GEMMFLOPS float64 `json:"gemm_peak_flops,omitempty"`
	// VectorFLOPS is the peak element-wise throughput, FLOP/s.
	VectorFLOPS float64 `json:"vector_peak_flops,omitempty"`
	// MemBytes is the peak memory bandwidth, bytes/s.
	MemBytes float64 `json:"mem_peak_bytes,omitempty"`
}

// CategoryStep is one operator category's share of a training step: the
// paper's per-category time/FLOPs/bytes decomposition (Fig. 3/4) plus
// the achieved-rate columns of its roofline analysis (Fig. 6/7).
type CategoryStep struct {
	Category string  `json:"category"`
	Kernels  int     `json:"kernels"`
	TimeMS   float64 `json:"time_ms"`
	GFLOPs   float64 `json:"gflops"`
	GBytes   float64 `json:"gbytes"`
	// AchievedGFLOPS and AchievedGBs are the category's realized
	// compute and memory rates over its own wall time.
	AchievedGFLOPS float64 `json:"achieved_gflops"`
	AchievedGBs    float64 `json:"achieved_gbs"`
	// PeakFLOPFrac is AchievedGFLOPS over the applicable compute peak
	// (matrix peak for GEMM categories, vector peak otherwise);
	// PeakMemFrac is AchievedGBs over peak bandwidth. Zero when the
	// corresponding peak is unknown. Categories that mix GEMM and
	// vector kernels (e.g. Output) are compared against the vector
	// peak, so their fraction can exceed 1.
	PeakFLOPFrac float64 `json:"peak_flop_frac,omitempty"`
	PeakMemFrac  float64 `json:"peak_mem_frac,omitempty"`
}

// StepRecord is one line of the per-step JSONL stream: a measured step
// (NewStepRecord over a profile summary) or a modeled one
// (report.StepRecordFromResult) — one record shape, two producers.
type StepRecord struct {
	Step         int            `json:"step"`
	Loss         float64        `json:"loss"`
	Tokens       int            `json:"tokens"`
	WallMS       float64        `json:"wall_ms"`
	TokensPerSec float64        `json:"tokens_per_sec"`
	Categories   []CategoryStep `json:"categories"`
}

// NewStepRecord builds a record from one step's profile summary. wall is
// the step's wall-clock time (which bounds tokens/s; the summary's
// per-kernel durations can exceed it when kernels run in parallel).
func NewStepRecord(step int, loss float64, tokens int, wall time.Duration, sum profile.Summary, peaks Peaks) StepRecord {
	rec := StepRecord{
		Step:   step,
		Loss:   loss,
		Tokens: tokens,
		WallMS: 1e3 * wall.Seconds(),
	}
	if wall > 0 {
		rec.TokensPerSec = float64(tokens) / wall.Seconds()
	}
	for _, c := range sum.Categories() {
		st := sum.ByCategory[c]
		rec.Categories = append(rec.Categories, newCategoryStep(c, st, peaks))
	}
	return rec
}

// newCategoryStep converts one category's aggregate stat into its
// achieved-rate row.
func newCategoryStep(c profile.Category, st profile.Stat, peaks Peaks) CategoryStep {
	row := CategoryStep{
		Category: string(c),
		Kernels:  st.Kernels,
		TimeMS:   1e3 * st.Duration.Seconds(),
		GFLOPs:   float64(st.FLOPs) / 1e9,
		GBytes:   float64(st.Bytes) / 1e9,
	}
	if secs := st.Duration.Seconds(); secs > 0 {
		row.AchievedGFLOPS = row.GFLOPs / secs
		row.AchievedGBs = row.GBytes / secs
	}
	flopPeak := peaks.VectorFLOPS
	if c.IsGEMM() {
		flopPeak = peaks.GEMMFLOPS
	}
	if flopPeak > 0 {
		row.PeakFLOPFrac = 1e9 * row.AchievedGFLOPS / flopPeak
	}
	if peaks.MemBytes > 0 {
		row.PeakMemFrac = 1e9 * row.AchievedGBs / peaks.MemBytes
	}
	return row
}

// StepEmitter writes one JSON record per training step to a stream —
// the flight recorder a dashboard or plotting pipeline tails. Writes
// are buffered (one small write syscall per step instead of several);
// callers register Flush on their shutdown path (runutil.Shutdown) so
// an interrupted run still lands its completed steps on disk. Safe for
// concurrent use.
type StepEmitter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewStepEmitter wraps w. A measured step has no device model, so its
// records omit the peak-fraction fields.
func NewStepEmitter(w io.Writer) *StepEmitter {
	bw := bufio.NewWriter(w)
	return &StepEmitter{bw: bw, enc: json.NewEncoder(bw)}
}

// emit writes rec as one JSON line.
func (e *StepEmitter) emit(rec StepRecord) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.enc.Encode(rec)
}

// Flush forces buffered records to the underlying writer.
func (e *StepEmitter) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bw.Flush()
}

// finalRecord is the terminal JSONL line: the full registry snapshot at
// shutdown, so the stream carries the run's closing counters (requests
// served, deadline hits, padding waste) alongside its per-step rows.
type finalRecord struct {
	FinalMetrics []Metric `json:"final_metrics"`
}

// EmitFinal appends the registry's closing snapshot as a final
// {"final_metrics": [...]} line and flushes. Nil registry flushes only.
func (e *StepEmitter) EmitFinal(r *Registry) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if r != nil {
		if err := e.enc.Encode(finalRecord{FinalMetrics: r.Snapshot()}); err != nil {
			return err
		}
	}
	return e.bw.Flush()
}

// EmitStep builds a record from the step's summary and writes it.
func (e *StepEmitter) EmitStep(step int, loss float64, tokens int, wall time.Duration, sum profile.Summary) error {
	return e.emit(NewStepRecord(step, loss, tokens, wall, sum, Peaks{}))
}

// WriteJSONL writes records computed up front (the analytical model's)
// as the stream a StepEmitter leaves behind: one JSON line per record,
// then r's closing snapshot (none when r is nil).
func WriteJSONL(w io.Writer, recs []StepRecord, r *Registry) error {
	e := NewStepEmitter(w)
	for _, rec := range recs {
		if err := e.emit(rec); err != nil {
			return err
		}
	}
	return e.EmitFinal(r)
}

// WriteCSV writes the records' category rows as CSV: a header of the
// CategoryStep JSON keys behind a step column, then one row per category
// per record.
func WriteCSV(w io.Writer, recs []StepRecord) error {
	rows := [][]string{{"step", "category", "kernels", "time_ms", "gflops", "gbytes",
		"achieved_gflops", "achieved_gbs", "peak_flop_frac", "peak_mem_frac"}}
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, rec := range recs {
		for _, c := range rec.Categories {
			rows = append(rows, []string{strconv.Itoa(rec.Step), c.Category, strconv.Itoa(c.Kernels),
				num(c.TimeMS), num(c.GFLOPs), num(c.GBytes),
				num(c.AchievedGFLOPS), num(c.AchievedGBs), num(c.PeakFLOPFrac), num(c.PeakMemFrac)})
		}
	}
	return csv.NewWriter(w).WriteAll(rows)
}
