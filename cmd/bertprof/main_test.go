package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"demystbert/internal/model"
	"demystbert/internal/opgraph"
	"demystbert/internal/profile"
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

// reportRow returns the fields of the kernel-profile row of category c.
func reportRow(t *testing.T, out string, c profile.Category) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == string(c) {
			return f
		}
	}
	t.Fatalf("no %s row in:\n%s", c, out)
	return nil
}

// TestMemoryScaledRun runs the reduced BERT-Large smoke's flags at a small
// width: accumulation, two virtual optimizer shards and checkpoint spill.
// The profile carries a modeled share beside every measured one, the
// spill wrote bytes, and peak RSS is printed beside the modeled resident
// footprint.
func TestMemoryScaledRun(t *testing.T) {
	out, code := runCmd(t, "-layers", "2", "-dmodel", "64", "-heads", "4", "-dff", "256", "-n", "32",
		"-b", "2", "-accum", "2", "-shards", "2", "-checkpoint", "1", "-spill-dir", t.TempDir(), "-iters", "1")
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	if !strings.Contains(out, "accum=2, shards=2, spill=") {
		t.Errorf("workload line does not carry the memory plan:\n%s", out)
	}
	for _, c := range []profile.Category{profile.CatFCGEMM, profile.CatLinear, profile.CatOutput, profile.CatLAMBStage1, profile.CatOther} {
		f := reportRow(t, out, c)
		if len(f) != 8 || !strings.HasSuffix(f[6], "%") || !strings.HasSuffix(f[7], "%") {
			t.Errorf("%s row has no measured and modeled share: %v", c, f)
		}
	}
	var wrote, read int64
	var stall string
	var swaps int
	i := strings.Index(out, "spill: wrote ")
	if i < 0 {
		t.Fatalf("no spill line:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "spill: wrote %d B, read %d B, stall %s %d shard swaps", &wrote, &read, &stall, &swaps); err != nil || wrote <= 0 || swaps != 2 {
		t.Errorf("spill line %q: wrote %d B, %d shard swaps (err %v); want bytes written and 2 swaps", out[i:i+80], wrote, swaps, err)
	}
	if !strings.Contains(out, "peak RSS ") || !strings.Contains(out, "MiB vs modeled resident ") {
		t.Errorf("no peak-RSS line beside the modeled resident footprint:\n%s", out)
	}
	var ws, act float64
	i = strings.Index(out, "step workspace ")
	if i < 0 {
		t.Fatalf("no step-workspace line:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "step workspace %f MiB measured (forward and backward draws) vs modeled retained activations %f MiB", &ws, &act); err != nil || ws <= 0 || act <= 0 {
		t.Errorf("step-workspace line %q: workspace %v MiB, modeled %v MiB (err %v); want both positive", out[i:min(len(out), i+120)], ws, act, err)
	}
}

// TestRefusals: the memory knobs' combinations that cannot run, or would
// run and save nothing, exit 2 before any work.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-b", "4", "-accum", "3"}, "-accum 3 must divide -b 4"},
		{[]string{"-mode", "finetune", "-accum", "2"}, "-accum > 1 needs -mode pretrain"},
		{[]string{"-shards", "2"}, "-shards 2 needs -spill-dir"},
	} {
		var out, errOut strings.Builder
		if code := run(tc.args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), tc.want) || out.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %d bytes; want 2, %q and no output", tc.args, code, errOut.String(), out.Len(), tc.want)
		}
	}
}

// TestModeledOutputMatchesMeasured: the modeled column prices the MLM
// head the engine runs, over the run's scored rows. At the default shapes
// the analytical graph's Output FLOPs agree with the profiler's within
// 2 %; priced over all B·n rows (MLMRows 0) they would read several times
// the measured work.
func TestModeledOutputMatchesMeasured(t *testing.T) {
	const iters = 2
	out, code := runCmd(t, "-iters", strconv.Itoa(iters))
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var rows int
	i := strings.Index(out, "MLM head over ")
	if i < 0 {
		t.Fatalf("no scored-row count in:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "MLM head over %d scored rows", &rows); err != nil || rows <= 0 {
		t.Fatalf("scored rows %d (%v)", rows, err)
	}
	measured, err := strconv.ParseInt(reportRow(t, out, profile.CatOutput)[3], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	// bertprof's defaults.
	cfg := model.Config{Vocab: 1000, MaxPos: 32, NumLayers: 2, DModel: 64, Heads: 4, DFF: 256, DropProb: 0.1}
	modeled := func(mlmRows int) float64 {
		var flops int64
		for _, op := range opgraph.Build(opgraph.Workload{Cfg: cfg, B: 4, SeqLen: 32, MLMRows: mlmRows}).Ops {
			if op.Category == profile.CatOutput {
				flops += op.TotalFLOPs()
			}
		}
		return float64(flops*iters) / float64(measured)
	}
	t.Logf("modeled/measured Output FLOPs: %.3f over %d scored rows, %.2f over all rows", modeled(rows), rows, modeled(0))
	if r := modeled(rows); r < 0.98 || r > 1.02 {
		t.Errorf("modeled Output FLOPs over %d scored rows are %.3fx the measured %d", rows, r, measured)
	}
	if r := modeled(0); r < 2 {
		t.Errorf("the all-row head reads %.2fx the measured Output FLOPs: the pin cannot tell the heads apart", r)
	}
}
