package main

import (
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

func TestRunExportJSON(t *testing.T) {
	out, _, code := runCmd(t, "-export", "json", "-b", "4")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	if decoded["workload"] != "Ph1-B4-FP32" {
		t.Fatalf("workload %v", decoded["workload"])
	}
}

func TestRunExportCSV(t *testing.T) {
	out, _, code := runCmd(t, "-export", "csv", "-phase", "2", "-mp")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.HasPrefix(out, "workload,device,category") || !strings.Contains(out, "Ph2-B32-FP16") {
		t.Fatalf("CSV export malformed:\n%s", out[:min(200, len(out))])
	}
}

func TestRunExportJSONCarriesRuntime(t *testing.T) {
	out, _, code := runCmd(t, "-export", "json", "-b", "4")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "runtime_metrics") {
		t.Fatal("JSON export must embed the runtime metric snapshot")
	}
}

func TestRunDebugAddr(t *testing.T) {
	out, _, code := runCmd(t, "-artifact", "fig3", "-debug-addr", "127.0.0.1:0")
	if code != 0 || !strings.Contains(out, "debug server: http://127.0.0.1:") {
		t.Fatalf("debug server did not start: code %d\n%s", code, out[:min(200, len(out))])
	}
}

// The live reduced-scale run is bertprof's (-iters N -metrics-jsonl F);
// its second entry point here is gone, not ignored.
func TestRunLiveFlagsRemoved(t *testing.T) {
	for _, args := range [][]string{{"-steps", "1"}, {"-metrics-jsonl", "x"}} {
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
