package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"demystbert/internal/profile"
)

// Perfetto/Chrome export of merged spans: one process, one track (tid)
// per rank, so a `bertdist -launch N` run renders as N parallel
// timelines whose step spans line up once the clock offsets are
// applied. Kernel-level profile events can ride along on a dedicated
// track per rank (tid = rank's track + kernelTrackStride) — they share
// the wall-clock timeline with the spans, which is what lets a serving
// batch span visually contain the GEMM slices it dispatched.

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, Perfetto), the interchange format GPU profilers
// including rocProf export to.
type chromeEvent struct {
	Name     string            `json:"name"`
	Category string            `json:"cat"`
	Phase    string            `json:"ph"`
	TSMicros float64           `json:"ts"`
	DurMicro float64           `json:"dur"`
	PID      int               `json:"pid"`
	TID      int               `json:"tid"`
	Args     map[string]string `json:"args,omitempty"`
}

const kernelTrackStride = 1000

// WriteChromeTrace exports spans (already merged/aligned — see Merge)
// as a Chrome trace-event JSON array: the repo's one timeline writer,
// behind bertprof -trace, bertdist -trace-out and serve.Engine.WriteTrace.
// kernels, when non-empty, is a profile event log recorded on the same
// clock (rank 0's, for distributed runs; the process's own otherwise);
// its slices land on a companion track, carrying phase, iteration, FLOPs
// and bytes as args. Timestamps are rebased to the earliest span so
// Perfetto opens at t=0.
func WriteChromeTrace(w io.Writer, spans []Span, kernels []profile.Event) error {
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	for _, e := range kernels {
		if !e.Start.IsZero() && (origin.IsZero() || e.Start.Before(origin)) {
			origin = e.Start
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(origin).Nanoseconds()) / 1e3 }

	out := make([]chromeEvent, 0, len(spans)+len(kernels)+8)
	seenRank := map[int]bool{}
	for _, s := range spans {
		if !seenRank[s.Rank] {
			seenRank[s.Rank] = true
			out = append(out, chromeEvent{
				Name: "thread_name", Phase: "M", PID: 1, TID: s.Rank + 1,
				Args: map[string]string{"name": fmt.Sprintf("rank %d spans", s.Rank)},
			})
		}
		args := map[string]string{
			"trace": s.Trace.String(),
			"span":  fmt.Sprintf("%016x", uint64(s.ID)),
		}
		if s.Parent != 0 {
			args["parent"] = fmt.Sprintf("%016x", uint64(s.Parent))
		}
		if s.Step != 0 {
			args["step"] = fmt.Sprint(s.Step)
		}
		out = append(out, chromeEvent{
			Name: s.Name, Category: "span", Phase: "X",
			TSMicros: us(s.Start),
			DurMicro: float64(s.Dur.Nanoseconds()) / 1e3,
			PID:      1, TID: s.Rank + 1,
			Args: args,
		})
	}
	if len(kernels) > 0 {
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: kernelTrackStride + 1,
			Args: map[string]string{"name": "kernels"},
		})
	}
	for _, e := range kernels {
		if e.Start.IsZero() {
			continue // an event recorded without a timestamp has no place on a wall-clock timeline
		}
		out = append(out, chromeEvent{
			Name: e.Kernel, Category: string(e.Category), Phase: "X",
			TSMicros: us(e.Start),
			DurMicro: float64(e.Duration.Nanoseconds()) / 1e3,
			PID:      1, TID: kernelTrackStride + 1,
			Args: map[string]string{
				"phase": e.Phase.String(),
				"iter":  fmt.Sprint(e.Iter),
				"flops": fmt.Sprint(e.FLOPs),
				"bytes": fmt.Sprint(e.Bytes),
			},
		})
	}
	return json.NewEncoder(w).Encode(out)
}
