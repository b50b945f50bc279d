package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json is the single declaration of workloads, metric names,
// units, directions and bounds. The program reads it instead of keeping
// a second table, so a name cannot be emitted without being declared.

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no workloads or metrics declared", path)
	}
	return &s, nil
}

func findMetric(list []metricDecl, name string) (metricDecl, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricDecl{}, false
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// value is one reported number. N is the sample count behind it (0 for a
// count or a ratio of counters); Note carries what a bare number cannot,
// such as which percentile a tail is.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// raw is what an end-to-end metric is computed from. A workload's window
// may be split into rounds run in separate processes; the aggregator
// pools the rounds' raw samples and summarises them once.
type raw struct {
	OpMS    []float64 `json:"op_ms"`   // one per operation: step time or request latency
	Tokens  int64     `json:"tokens"`  // real tokens processed in the window
	WallS   float64   `json:"wall_s"`  // length of the window
	SetupS  []float64 `json:"setup_s"` // one per timed set-up
	PeakRSS float64   `json:"peak_rss_mb"`
}

func (a *raw) merge(b raw) {
	a.OpMS = append(a.OpMS, b.OpMS...)
	a.Tokens += b.Tokens
	a.WallS += b.WallS
	a.SetupS = append(a.SetupS, b.SetupS...)
	if b.PeakRSS > a.PeakRSS {
		a.PeakRSS = b.PeakRSS
	}
}

// result is everything one workload run reports.
type result struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Checks    []check          `json:"checks"`
	Raw       raw              `json:"raw"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
	Losses    []float64        `json:"losses,omitempty"`
	TraceFile string           `json:"trace_file,omitempty"`

	spec *benchSpec
}

func newResult(spec *benchSpec, workload string, seed uint64, seconds float64, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		EndToEnd: map[string]value{}, PerLayer: map[string]value{}, spec: spec,
	}
}

// layer records a per-layer metric. Emitting an undeclared name is a bug
// in the benchmark, so it panics rather than printing a metric nobody
// can look up.
func (r *result) layer(name string, v float64, n int, note ...string) {
	d, ok := findMetric(r.spec.PerLayer, name)
	if !ok {
		panic("bench: per-layer metric " + name + " is not declared in BENCHMARK.json")
	}
	val := value{Value: v, Unit: d.Unit, N: n}
	if len(note) > 0 {
		val.Note = note[0]
	}
	r.PerLayer[name] = val
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

// summarise computes the end-to-end metrics from the raw samples.
func (r *result) summarise() {
	e2e := func(name string, v float64, n int, note string) {
		d, ok := findMetric(r.spec.EndToEnd, name)
		if !ok {
			panic("bench: end-to-end metric " + name + " is not declared in BENCHMARK.json")
		}
		r.EndToEnd[name] = value{Value: v, Unit: d.Unit, N: n, Note: note}
	}
	n := len(r.Raw.OpMS)
	e2e("op_ms_p50", median(r.Raw.OpMS), n, "")
	// The tail did not repeat within its bound on the reference VM
	// (p99 of 1200 requests: 38–399 ms over eight runs), so it is
	// reported with the layers and not gated.
	t, pct := tail(r.Raw.OpMS)
	r.layer("op_ms_tail", t, n, fmt.Sprintf("p%d", pct))
	tps := 0.0
	if r.Raw.WallS > 0 {
		tps = float64(r.Raw.Tokens) / r.Raw.WallS
	}
	e2e("tokens_per_s", tps, n, "")
	e2e("setup_s", median(r.Raw.SetupS), len(r.Raw.SetupS), "")
	e2e("peak_rss_mb", r.Raw.PeakRSS, 0, "")
}

// driverLine is the one-line JSON the regression driver reads: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one (0 where the workload does not execute that layer).
func (r *result) driverLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if r.Traced {
		for _, d := range r.spec.PerLayer {
			metrics[d.Name] = mv{r.PerLayer[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range r.spec.EndToEnd {
			v, ok := r.EndToEnd[d.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			metrics[d.Name] = mv{v.Value, d.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct() && r.Failed == 0, r.Attempted, r.Failed, metrics})
}
