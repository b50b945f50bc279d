package obs

import (
	"bufio"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestWindowQuantiles(t *testing.T) {
	w := NewWindow(100)
	for i := 1; i <= 100; i++ {
		w.Observe(float64(i))
	}
	if p50 := w.Quantile(0.50); p50 != 50 {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 := w.Quantile(0.99); p99 != 99 {
		t.Fatalf("p99 = %v", p99)
	}
	// Rolling: 100 more observations of 1000 evict the old ones.
	for i := 0; i < 100; i++ {
		w.Observe(1000)
	}
	if p50 := w.Quantile(0.50); p50 != 1000 {
		t.Fatalf("p50 after roll = %v", p50)
	}
	if !math.IsNaN(NewWindow(4).Quantile(0.5)) {
		t.Fatal("empty window should be NaN")
	}
}

func TestWindowObserveZeroAlloc(t *testing.T) {
	w := NewWindow(64)
	allocs := testing.AllocsPerRun(1000, func() { w.Observe(1.5) })
	if allocs != 0 {
		t.Fatalf("Window.Observe allocates %.1f per op", allocs)
	}
}

func TestQuantileGaugeSnapshot(t *testing.T) {
	r := NewRegistry()
	w := NewWindow(16)
	r.NewQuantileGauge("lat_p50_ms", "rolling median", w, 0.50)
	r.NewQuantileGauge("lat_p99_ms", "rolling tail", w, 0.99)
	m, ok := r.Find("lat_p50_ms")
	if !ok || m.Value != 0 {
		t.Fatalf("empty window gauge = %+v", m)
	}
	for i := 1; i <= 10; i++ {
		w.Observe(float64(i))
	}
	m, _ = r.Find("lat_p50_ms")
	if m.Value != 5 {
		t.Fatalf("p50 gauge = %v", m.Value)
	}
	m, _ = r.Find("lat_p99_ms")
	if m.Value != 10 {
		t.Fatalf("p99 gauge = %v", m.Value)
	}
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_ms", "latency", []float64{1, 10})
	h.ObserveExemplar(2.5, 0) // no trace: observation only
	m, _ := r.Find("lat_ms")
	if m.Exemplar != nil {
		t.Fatal("zero trace id must not set an exemplar")
	}
	h.ObserveExemplar(4, 0xabc)
	h.ObserveExemplar(3, 0xdef) // smaller + fresh exemplar: kept out
	m, _ = r.Find("lat_ms")
	if m.Exemplar == nil || m.Exemplar.TraceID != "0000000000000abc" || m.Exemplar.Value != 4 {
		t.Fatalf("exemplar = %+v", m.Exemplar)
	}
	h.ObserveExemplar(9, 0x123) // new worst replaces
	m, _ = r.Find("lat_ms")
	if m.Exemplar.TraceID != "0000000000000123" {
		t.Fatalf("exemplar not replaced: %+v", m.Exemplar)
	}
	if m.Value != 4 {
		t.Fatalf("exemplar path lost observations: count %v", m.Value)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `# {trace_id="0000000000000123"} 9`) {
		t.Fatalf("prometheus text missing exemplar:\n%s", sb.String())
	}
}

func TestHistogramObserveExemplarNoTraceZeroAlloc(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("zz_ms", "", []float64{1, 10})
	allocs := testing.AllocsPerRun(1000, func() { h.ObserveExemplar(2, 0) })
	if allocs != 0 {
		t.Fatalf("ObserveExemplar without trace allocates %.1f per op", allocs)
	}
}

func TestEmitFinalSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("reqs_total", "")
	c.Add(7)
	var sb strings.Builder
	e := NewStepEmitter(&sb)
	if err := e.EmitStep(1, 5, 64, 0, sampleSummary()); err != nil {
		t.Fatal(err)
	}
	if err := e.EmitFinal(r); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines, want step + final", len(lines))
	}
	var fin struct {
		FinalMetrics []Metric `json:"final_metrics"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &fin); err != nil {
		t.Fatal(err)
	}
	if len(fin.FinalMetrics) != 1 || fin.FinalMetrics[0].Name != "reqs_total" || fin.FinalMetrics[0].Value != 7 {
		t.Fatalf("final snapshot %+v", fin.FinalMetrics)
	}
}
