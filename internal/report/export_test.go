package report

import (
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"demystbert/internal/device"
	"demystbert/internal/obs"
	"demystbert/internal/profile"
)

// sampleRegistry builds an isolated registry with all three metric
// kinds populated, standing in for the live Default registry.
func sampleRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.NewCounter("kernels_pack_cache_hits_total", "pack cache hits").Add(120)
	r.NewCounter("kernels_pack_cache_misses_total", "pack cache misses").Add(8)
	r.NewGauge("loss_scale", "current loss scale").Set(2048)
	h := r.NewHistogram("ddp_step_wall_seconds", "step wall", obs.ExpBuckets(1e-3, 10, 4))
	h.Observe(0.02)
	h.Observe(0.7)
	return r
}

// jsonLines writes recs through obs.WriteJSONL and splits the stream.
func jsonLines(t *testing.T, recs []obs.StepRecord, reg *obs.Registry) []string {
	t.Helper()
	var sb strings.Builder
	if err := obs.WriteJSONL(&sb, recs, reg); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(sb.String()), "\n")
}

// TestExportStructure pins the modeled record against the measured
// schema: one row per category, each once, sorted by descending time as
// obs.NewStepRecord sorts a profiled step's.
func TestExportStructure(t *testing.T) {
	r := runOn(opgraphPh1(), device.MI100())
	rec := StepRecordFromResult(1, r)
	if rec.Tokens != 32*128 || rec.WallMS <= 0 {
		t.Fatalf("record header wrong: %+v", rec)
	}
	seen := map[string]bool{}
	for i, row := range rec.Categories {
		if seen[row.Category] {
			t.Fatalf("duplicate category %s", row.Category)
		}
		seen[row.Category] = true
		if row.Kernels <= 0 || row.TimeMS < 0 {
			t.Fatalf("malformed row %+v", row)
		}
		if i > 0 && row.TimeMS > rec.Categories[i-1].TimeMS {
			t.Fatalf("row %d (%s) slower than the row before it", i, row.Category)
		}
	}
	if len(seen) != len(r.ByCategory()) {
		t.Fatalf("%d categories, model has %d", len(seen), len(r.ByCategory()))
	}
}

// TestExportWithRuntimeRoundTrip covers the registry snapshot that
// closes an export: counters, gauges and histogram buckets survive the
// JSON round trip on the final line.
func TestExportWithRuntimeRoundTrip(t *testing.T) {
	r := runOn(opgraphPh1(), device.MI100())
	lines := jsonLines(t, []obs.StepRecord{StepRecordFromResult(1, r)}, sampleRegistry())
	if len(lines) != 2 {
		t.Fatalf("%d lines, want the record + the final snapshot", len(lines))
	}
	var back obs.StepRecord
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil || len(back.Categories) == 0 {
		t.Fatalf("record line lost its breakdown (%v): %s", err, lines[0])
	}
	var fin struct {
		FinalMetrics []obs.Metric `json:"final_metrics"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &fin); err != nil {
		t.Fatalf("final line is not valid JSON: %v", err)
	}
	byName := map[string]obs.Metric{}
	for _, m := range fin.FinalMetrics {
		byName[m.Name] = m
	}
	if len(byName) != 4 {
		t.Fatalf("final snapshot has %d metrics, want 4", len(byName))
	}
	if m := byName["kernels_pack_cache_hits_total"]; m.Kind != "counter" || m.Value != 120 {
		t.Fatalf("counter did not round-trip: %+v", m)
	}
	if m := byName["loss_scale"]; m.Kind != "gauge" || m.Value != 2048 {
		t.Fatalf("gauge did not round-trip: %+v", m)
	}
	h := byName["ddp_step_wall_seconds"]
	if h.Kind != "histogram" || h.Value != 2 || len(h.Buckets) != 5 {
		t.Fatalf("histogram did not round-trip: %+v", h)
	}
	if !math.IsInf(h.Buckets[4].UpperBound, 1) || h.Buckets[4].Count != 2 {
		t.Fatalf("+Inf bucket did not round-trip: %+v", h.Buckets)
	}
}

// TestExportWithoutRuntimeOmitsField: no registry, no final line, and no
// record line ever carries the snapshot key.
func TestExportWithoutRuntimeOmitsField(t *testing.T) {
	r := runOn(opgraphPh1(), device.MI100())
	lines := jsonLines(t, []obs.StepRecord{StepRecordFromResult(1, r), StepRecordFromResult(2, r)}, nil)
	if len(lines) != 2 {
		t.Fatalf("%d lines, want one per record", len(lines))
	}
	for _, l := range lines {
		if strings.Contains(l, "final_metrics") {
			t.Fatalf("record line carries the snapshot: %s", l)
		}
	}
}

// TestStepRecordFromResult checks the modeled-step conversion: totals
// and achieved rates must agree with the underlying characterization.
func TestStepRecordFromResult(t *testing.T) {
	r := runOn(opgraphPh1(), device.MI100())
	rec := StepRecordFromResult(5, r)
	if rec.Step != 5 || rec.Loss != 0 {
		t.Fatalf("header %+v", rec)
	}
	if want := 1e3 * r.Total.Seconds(); math.Abs(rec.WallMS-want) > 1e-9 {
		t.Fatalf("wall %v ms, want %v", rec.WallMS, want)
	}
	if math.Abs(rec.TokensPerSec-r.TokensPerSecond()) > 1e-9 {
		t.Fatalf("tokens/s %v, want %v", rec.TokensPerSec, r.TokensPerSecond())
	}
	if rec.Tokens != r.Graph.Workload.Tokens() {
		t.Fatalf("tokens %d, want %d", rec.Tokens, r.Graph.Workload.Tokens())
	}
	var sumMS float64
	for _, c := range rec.Categories {
		sumMS += c.TimeMS
		if c.TimeMS > 0 && c.GFLOPs > 0 && c.AchievedGFLOPS <= 0 {
			t.Fatalf("category %s missing achieved GFLOP/s: %+v", c.Category, c)
		}
		if c.TimeMS > 0 && c.GBytes > 0 && c.AchievedGBs <= 0 {
			t.Fatalf("category %s missing achieved GB/s: %+v", c.Category, c)
		}
		if c.PeakMemFrac > 1+1e-9 {
			t.Fatalf("category %s above memory peak: %+v", c.Category, c)
		}
	}
	if math.Abs(sumMS-rec.WallMS) > 1e-6*rec.WallMS {
		t.Fatalf("category times sum to %v ms, total %v ms", sumMS, rec.WallMS)
	}
	// GEMM categories compare against the matrix peak, non-GEMM against
	// the vector peak — spot-check one of each exists with a sane frac.
	var sawGEMM bool
	for _, c := range rec.Categories {
		if profile.Category(c.Category).IsGEMM() && c.PeakFLOPFrac > 0 {
			sawGEMM = true
		}
	}
	if !sawGEMM {
		t.Fatal("no GEMM category with a peak fraction")
	}
}

// TestWriteJSONAndCSV: both serialisations of the same records decode,
// and the CSV carries one row per category per record.
func TestWriteJSONAndCSV(t *testing.T) {
	r := runOn(opgraphPh1(), device.MI100())
	recs := []obs.StepRecord{StepRecordFromResult(1, r), StepRecordFromResult(2, r)}
	lines := jsonLines(t, recs, nil)
	var decoded obs.StepRecord
	if err := json.Unmarshal([]byte(lines[1]), &decoded); err != nil {
		t.Fatalf("JSON export invalid: %v", err)
	}
	if decoded.Step != 2 || len(decoded.Categories) != len(recs[1].Categories) {
		t.Fatalf("decoded record %+v", decoded)
	}

	var cb strings.Builder
	if err := obs.WriteCSV(&cb, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(cb.String())).ReadAll()
	if err != nil {
		t.Fatalf("CSV export invalid: %v", err)
	}
	if len(rows) != 2*len(decoded.Categories)+1 {
		t.Fatalf("CSV has %d rows, want %d", len(rows), 2*len(decoded.Categories)+1)
	}
	if rows[0][0] != "step" || rows[0][1] != "category" || rows[0][9] != "peak_mem_frac" {
		t.Fatalf("CSV header %v", rows[0])
	}
	if last := rows[len(rows)-1]; last[0] != "2" || last[1] != decoded.Categories[len(decoded.Categories)-1].Category {
		t.Fatalf("last CSV row %v", last)
	}
}
