package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside that layer. Spans of one step or request share Op; Parent is
// the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Op     int       `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
	// StartUS/DurUS are filled at write time, relative to the first span.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID for children to name
// as their parent.
func (r *recorder) add(parent, op int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// reserve hands out the ID of a span whose end is not known yet, so its
// children can be recorded first; finish completes it.
func (r *recorder) reserve(parent, op int, name string, start time.Time) int {
	return r.add(parent, op, name, start, start)
}

func (r *recorder) finish(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children (overlapping children are merged
// first, and children are clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
		covered := time.Duration(0)
		cursor := s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo.Before(cursor) {
				lo = cursor
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cursor = hi
			}
		}
		self[s.ID] = s.End.Sub(s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write stores the spans as bench/out/<workload>.trace.json.
func (r *recorder) write(dir, workload string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	if len(spans) == 0 {
		return "", nil
	}
	self := selfTimes(spans)
	t0 := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for i := range spans {
		s := &spans[i]
		s.StartUS, s.DurUS, s.SelfUS = us(s.Start.Sub(t0)), us(s.End.Sub(s.Start)), us(self[s.ID])
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
