package main

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestRunSingleArtifact(t *testing.T) {
	out, _, code := runCmd(t, "-artifact", "fig3")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "Ph1-B32-FP32") {
		t.Fatalf("fig3 output malformed:\n%s", out[:min(400, len(out))])
	}
}

func TestRunAllArtifacts(t *testing.T) {
	out, _, code := runCmd(t)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, want := range []string{"Table 2b", "Figure 3", "Figure 12b", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("all-artifact output missing %q", want)
		}
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	_, errOut, code := runCmd(t, "-artifact", "fig99")
	if code == 0 || !strings.Contains(errOut, "fig99") {
		t.Fatalf("unknown artifact: code %d, stderr %q", code, errOut)
	}
}

func TestRunUnknownModel(t *testing.T) {
	_, _, code := runCmd(t, "-model", "bogus")
	if code == 0 {
		t.Fatal("unknown model must fail")
	}
}

func TestRunDeviceScaling(t *testing.T) {
	out, _, code := runCmd(t, "-artifact", "fig3", "-compute", "2")
	if code != 0 || !strings.Contains(out, "compute x2.00") {
		t.Fatalf("scaled-device run failed: %d", code)
	}
}

// exportLines runs a JSON export and decodes its records; the last line
// must be the registry snapshot.
func exportLines(t *testing.T, args ...string) []map[string]any {
	t.Helper()
	out, errOut, code := runCmd(t, append([]string{"-export", "json"}, args...)...)
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var final map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil || final["final_metrics"] == nil {
		t.Fatalf("last line is not the registry snapshot (%v): %.200s", err, lines[len(lines)-1])
	}
	var recs []map[string]any
	for i, line := range lines[:len(lines)-1] {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i+1, err)
		}
		if rec["step"] != float64(i+1) || rec["loss"] != float64(0) || rec["tokens_per_sec"] == float64(0) {
			t.Fatalf("line %d is not a modeled step record: %.300s", i+1, line)
		}
		cats, ok := rec["categories"].([]any)
		if !ok || len(cats) == 0 {
			t.Fatalf("line %d has no categories", i+1)
		}
		for _, key := range []string{"category", "kernels", "time_ms", "achieved_gflops", "achieved_gbs", "peak_flop_frac", "peak_mem_frac"} {
			if _, ok := cats[0].(map[string]any)[key]; !ok {
				t.Fatalf("line %d: category row missing %q: %v", i+1, key, cats[0])
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// The workload export is one obs.StepRecord, the schema bertprof writes
// for measured steps.
func TestRunExportJSON(t *testing.T) {
	recs := exportLines(t, "-b", "4")
	if len(recs) != 1 || recs[0]["tokens"] != float64(4*128) {
		t.Fatalf("want one record of 4x128 tokens, got %v", recs)
	}
}

// A -dp run exports the per-device workload record it profiles, the
// record bertdist's modeled -metrics-jsonl wrote.
func TestRunExportDP(t *testing.T) {
	recs := exportLines(t, "-dp", "64")
	if len(recs) != 1 || recs[0]["tokens"] != float64(32*128) {
		t.Fatalf("want one per-device record of 32x128 tokens, got %v", recs)
	}
}

// With no workload flags the export is the default phase-1 B=32 record.
func TestRunExportDefaultWorkload(t *testing.T) {
	recs := exportLines(t)
	if len(recs) != 1 || recs[0]["tokens"] != float64(32*128) {
		t.Fatalf("want one record of 32x128 tokens, got %v", recs)
	}
}

func TestRunExportSweep(t *testing.T) {
	recs := exportLines(t, "-sweep", "batch", "-values", "4,8")
	if len(recs) != 2 || recs[0]["tokens"] != float64(4*128) || recs[1]["tokens"] != float64(8*128) {
		t.Fatalf("want one record per sweep point, got %v", recs)
	}
}

func TestRunExportCSV(t *testing.T) {
	out, _, code := runCmd(t, "-export", "csv", "-phase", "2", "-mp")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("CSV export invalid: %v", err)
	}
	want := []string{"step", "category", "kernels", "time_ms", "gflops", "gbytes",
		"achieved_gflops", "achieved_gbs", "peak_flop_frac", "peak_mem_frac"}
	if strings.Join(rows[0], ",") != strings.Join(want, ",") || len(rows) < 2 || rows[1][0] != "1" {
		t.Fatalf("CSV export malformed:\n%s", out[:min(300, len(out))])
	}
}

// The runtime counters ride the export's closing line, as they close
// bertprof's measured stream.
func TestRunExportJSONCarriesRuntime(t *testing.T) {
	out, _, code := runCmd(t, "-export", "json", "-b", "4")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, `{"final_metrics":[{"name":`) {
		t.Fatal("JSON export must close with the runtime metric snapshot")
	}
}

// The modes that act on one workload (sweeps, multi-device profiles)
// and the Section 3.3 and 5 figures they extend.
func TestRunModeled(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		lines int // 0: not checked
		want  []string
	}{
		{"fig8", []string{"-artifact", "fig8"}, 0, []string{"Figure 8"}},
		{"fig9", []string{"-artifact", "fig9"}, 0, []string{"C3 (Megatron-like)"}},
		{"fig11", []string{"-artifact", "fig11"}, 0, []string{"Figure 11", "S1", "D1", "D2", "T1", "T2"}},
		{"sweep_batch", []string{"-sweep", "batch", "-values", "4,8"}, 3, []string{"tokens/s", "LAMB%"}},
		{"sweep_layers_defaults", []string{"-sweep", "layers"}, 5, nil},
		{"sweep_seqlen_mp", []string{"-sweep", "seqlen", "-values", "128,512", "-mp"}, 3, nil},
		{"dp_no_overlap", []string{"-dp", "64", "-b", "32", "-no-overlap"}, 6, []string{"DP-64 B=32", "Comm"}},
		{"zero", []string{"-dp", "128", "-zero"}, 6, []string{"ZeRO-128 B=32"}},
		{"ts_ring", []string{"-ts", "8", "-b", "64"}, 6, []string{"TS-8-way B=64", "Comm"}},
		{"ts_in_network", []string{"-ts", "8", "-b", "64", "-in-network"}, 6, []string{"(in-network)", "Comm"}},
		{"ts_link_mp", []string{"-ts", "2", "-mp", "-link", "4"}, 7, []string{"link x4.00", "TS-2-way"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, errOut, code := runCmd(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit code %d: %s", code, errOut)
			}
			if n := strings.Count(out, "\n"); tc.lines > 0 && n != tc.lines {
				t.Fatalf("%d lines, want %d:\n%s", n, tc.lines, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%.400s", w, out)
				}
			}
		})
	}
}

func TestRunBadSweep(t *testing.T) {
	if _, errOut, code := runCmd(t, "-sweep", "nonsense"); code != 2 || errOut == "" {
		t.Errorf("exit %d, stderr %q; want 2 and a message", code, errOut)
	}
}

func TestRunBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "batch", "-values", "4,x"},
		{"-sweep", "batch", "-values", "-3"},
	} {
		if _, errOut, code := runCmd(t, args...); code != 2 || errOut == "" {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a message", args, code, errOut)
		}
	}
}

// Real training is bertprof's (-iters N -metrics-jsonl F, and BERT-Large
// through its shape and memory flags): bertchar's live run and its -large
// mode are gone, not ignored, and with them the debug server that only a
// minutes-long run wanted.
func TestRunLiveFlagsRemoved(t *testing.T) {
	for _, args := range [][]string{
		{"-steps", "1"}, {"-metrics-jsonl", "x"},
		{"-large"}, {"-large-layers", "2"}, {"-large-b", "2"}, {"-accum", "2"},
		{"-large-seq", "32"}, {"-shards", "2"}, {"-ckpt-every", "1"},
		{"-memlimit-mb", "768"}, {"-spill-dir", "x"}, {"-breakdown-json", "x"},
		{"-debug-addr", "127.0.0.1:0"},
	} {
		_, errOut, code := runCmd(t, args...)
		if code != 2 || !strings.Contains(errOut, "flag provided but not defined") {
			t.Errorf("%v: exit %d, stderr %q", args, code, errOut)
		}
	}
}

func TestRunExportBadFormat(t *testing.T) {
	_, _, code := runCmd(t, "-export", "xml")
	if code == 0 {
		t.Fatal("bad export format must fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	_, _, code := runCmd(t, "-no-such-flag")
	if code == 0 {
		t.Fatal("bad flag must fail")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
