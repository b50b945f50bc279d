package obs

import (
	"bufio"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"demystbert/internal/profile"
)

func sampleSummary() profile.Summary {
	p := profile.New()
	p.Record(profile.Event{Kernel: "sgemm", Category: profile.CatFCGEMM, Phase: profile.Forward,
		Duration: 10 * time.Millisecond, FLOPs: 4e9, Bytes: 1e8})
	p.Record(profile.Event{Kernel: "layernorm", Category: profile.CatDRRCLN, Phase: profile.Forward,
		Duration: 5 * time.Millisecond, FLOPs: 1e7, Bytes: 2e8})
	return p.Summarize()
}

func TestNewStepRecordRates(t *testing.T) {
	peaks := Peaks{GEMMFLOPS: 1e12, VectorFLOPS: 5e11, MemBytes: 1e11}
	rec := NewStepRecord(3, 9.25, 128, 20*time.Millisecond, sampleSummary(), peaks)
	if rec.Step != 3 || rec.Loss != 9.25 || rec.Tokens != 128 {
		t.Fatalf("header fields %+v", rec)
	}
	if want := 128 / 0.020; math.Abs(rec.TokensPerSec-want) > 1e-9 {
		t.Fatalf("tokens/s = %v, want %v", rec.TokensPerSec, want)
	}
	if len(rec.Categories) != 2 {
		t.Fatalf("categories %+v", rec.Categories)
	}
	// Categories are sorted by descending duration: FCGEMM first.
	gemm := rec.Categories[0]
	if gemm.Category != "FCGEMM" {
		t.Fatalf("first category %q, want FCGEMM", gemm.Category)
	}
	// 4e9 FLOPs in 10 ms = 400 GFLOP/s; vs 1e12 matrix peak = 0.4.
	if math.Abs(gemm.AchievedGFLOPS-400) > 1e-9 || math.Abs(gemm.PeakFLOPFrac-0.4) > 1e-12 {
		t.Fatalf("GEMM achieved %v GFLOP/s (frac %v), want 400 (0.4)", gemm.AchievedGFLOPS, gemm.PeakFLOPFrac)
	}
	// 1e8 bytes in 10 ms = 10 GB/s; vs 1e11 B/s peak = 0.1.
	if math.Abs(gemm.AchievedGBs-10) > 1e-9 || math.Abs(gemm.PeakMemFrac-0.1) > 1e-12 {
		t.Fatalf("GEMM achieved %v GB/s (frac %v), want 10 (0.1)", gemm.AchievedGBs, gemm.PeakMemFrac)
	}
	// Non-GEMM category compares against the vector peak: 1e7 FLOPs in
	// 5 ms = 2 GFLOP/s; vs 5e11 = 4e-3.
	ln := rec.Categories[1]
	if math.Abs(ln.PeakFLOPFrac-2e9/5e11) > 1e-15 {
		t.Fatalf("DRRCLN peak frac %v", ln.PeakFLOPFrac)
	}
}

func TestNewStepRecordZeroPeaksAndWall(t *testing.T) {
	rec := NewStepRecord(0, 0, 64, 0, sampleSummary(), Peaks{})
	if rec.TokensPerSec != 0 {
		t.Fatalf("tokens/s with zero wall = %v", rec.TokensPerSec)
	}
	for _, c := range rec.Categories {
		if c.PeakFLOPFrac != 0 || c.PeakMemFrac != 0 {
			t.Fatalf("peak fractions without peaks: %+v", c)
		}
	}
}

func TestStepEmitterOneLinePerStep(t *testing.T) {
	var sb strings.Builder
	e := NewStepEmitter(&sb)
	sum := sampleSummary()
	for step := 1; step <= 3; step++ {
		if err := e.EmitStep(step, 10-float64(step), 128, 15*time.Millisecond, sum); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var lines int
	for sc.Scan() {
		lines++
		var rec StepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if rec.Step != lines || rec.Loss != 10-float64(lines) {
			t.Fatalf("line %d decoded %+v", lines, rec)
		}
		if len(rec.Categories) == 0 || rec.Categories[0].AchievedGFLOPS == 0 {
			t.Fatalf("line %d missing achieved rates: %+v", lines, rec.Categories)
		}
	}
	if lines != 3 {
		t.Fatalf("%d JSONL lines, want 3", lines)
	}
}
