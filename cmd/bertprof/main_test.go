package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	if code != 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	return out.String(), code
}

func TestPretrainProfile(t *testing.T) {
	out, code := runCmd(t, "-iters", "1")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, want := range []string{"parameters", "iteration 1: loss", "kernel profile", "GEMM share", "LAMBStage1"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q", want)
		}
	}
}

func TestFinetuneProfile(t *testing.T) {
	out, code := runCmd(t, "-mode", "finetune", "-iters", "1")
	if code != 0 || !strings.Contains(out, "span loss") {
		t.Fatalf("finetune profile failed: code %d", code)
	}
}

func TestMixedPrecisionProfile(t *testing.T) {
	out, code := runCmd(t, "-mp", "-iters", "1")
	if code != 0 || !strings.Contains(out, "mixed-precision=true") {
		t.Fatalf("MP profile failed: code %d", code)
	}
}

func TestCausalFusedProfile(t *testing.T) {
	out, code := runCmd(t, "-causal", "-iters", "1")
	if code != 0 || !strings.Contains(out, "causal=true") {
		t.Fatalf("causal profile failed: code %d", code)
	}
}

// TestTraceOutput pins the -trace timeline, which bertprof builds from
// real spans through trace.WriteChromeTrace: every fwd/bwd/upd span lies
// inside the step span it names as parent, and every kernel slice inside
// one phase span — the iteration → phase → kernel hierarchy of the
// paper's Fig. 3, by containment on the shared clock.
func TestTraceOutput(t *testing.T) {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Args map[string]string `json:"args"`
	}
	inside := func(e, outer event) bool { return e.TS >= outer.TS && e.TS+e.Dur <= outer.TS+outer.Dur }
	for _, mode := range []string{"pretrain", "finetune"} {
		path := filepath.Join(t.TempDir(), "trace.json")
		if _, code := runCmd(t, "-mode", mode, "-iters", "2", "-trace", path); code != 0 {
			t.Fatalf("%s: exit code %d", mode, code)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var events []event
		if err := json.Unmarshal(data, &events); err != nil {
			t.Fatalf("%s: trace not valid JSON: %v", mode, err)
		}
		steps := map[string]event{} // by span id
		var phases, kernels []event
		for _, e := range events {
			switch {
			case e.Ph != "X":
			case e.Cat != "span":
				kernels = append(kernels, e)
			case e.Name == "step":
				steps[e.Args["span"]] = e
			default:
				phases = append(phases, e)
			}
		}
		// The warm-up iteration is not in the file: 2 steps × {fwd, bwd, upd}.
		if len(steps) != 2 || len(phases) != 6 {
			t.Fatalf("%s: %d step and %d phase spans, want 2 and 6", mode, len(steps), len(phases))
		}
		for _, p := range phases {
			root, ok := steps[p.Args["parent"]]
			if !ok || !inside(p, root) {
				t.Errorf("%s: %s span [%f, +%f] is not inside its step span %+v", mode, p.Name, p.TS, p.Dur, root)
			}
		}
		if len(kernels) < 50 {
			t.Fatalf("%s: only %d kernel slices", mode, len(kernels))
		}
		for _, k := range kernels {
			var in []string
			for _, p := range phases {
				if inside(k, p) {
					in = append(in, p.Name)
				}
			}
			// The profiler's own phase label must agree with the span.
			want := map[string]string{"FWD": "fwd", "BWD": "bwd", "UPD": "upd"}[k.Args["phase"]]
			if len(in) != 1 || in[0] != want {
				t.Errorf("%s: %s kernel %s [%f, +%f] lies inside phase spans %v, want [%s]",
					mode, k.Args["phase"], k.Name, k.TS, k.Dur, in, want)
			}
		}
	}
}

func TestMetricsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "steps.jsonl")
	_, code := runCmd(t, "-iters", "2", "-metrics-jsonl", path)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d JSONL records, want 3 (2 steps + final snapshot)", len(lines))
	}
	var final map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &final); err != nil {
		t.Fatalf("final record not valid JSON: %v", err)
	}
	if _, ok := final["final_metrics"]; !ok {
		t.Fatalf("last record is not the registry snapshot: %s", lines[2])
	}
	for i, line := range lines[:2] {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i+1, err)
		}
		if rec["step"] != float64(i+1) {
			t.Fatalf("line %d has step %v", i+1, rec["step"])
		}
		if rec["loss"] == float64(0) || rec["tokens_per_sec"] == float64(0) {
			t.Fatalf("line %d missing loss or tokens/s: %s", i+1, line)
		}
		cats, ok := rec["categories"].([]any)
		if !ok || len(cats) == 0 {
			t.Fatalf("line %d has no categories", i+1)
		}
		first := cats[0].(map[string]any)
		for _, key := range []string{"achieved_gflops", "achieved_gbs", "time_ms"} {
			if _, ok := first[key]; !ok {
				t.Fatalf("category row missing %q: %v", key, first)
			}
		}
		// A step measured on this CPU is not divided by a GPU's peaks.
		for _, c := range cats {
			row := c.(map[string]any)
			for _, key := range []string{"peak_flop_frac", "peak_mem_frac"} {
				if _, ok := row[key]; ok {
					t.Fatalf("measured category row carries %q: %v", key, row)
				}
			}
		}
	}
}

func TestDebugAddr(t *testing.T) {
	out, code := runCmd(t, "-iters", "1", "-debug-addr", "127.0.0.1:0")
	if code != 0 || !strings.Contains(out, "debug server: http://127.0.0.1:") {
		t.Fatalf("debug server did not start: code %d\n%s", code, out[:min(200, len(out))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBadConfig(t *testing.T) {
	if _, code := runCmd(t, "-dmodel", "7", "-heads", "2"); code == 0 {
		t.Fatal("indivisible d_model must fail")
	}
}

func TestBadMode(t *testing.T) {
	if _, code := runCmd(t, "-mode", "predict"); code == 0 {
		t.Fatal("unknown mode must fail")
	}
}
