// Command bench is the repository's benchmark: six workloads, five
// end-to-end metrics that every workload reports, and a traced run that
// explains them layer by layer. BENCHMARK.json at the repository root
// declares every name, unit, direction and bound; bench/README.md says
// why each is there and which layer should move which number.
//
//	go run ./bench -all                 # every workload, end-to-end metrics
//	go run ./bench -all -traced         # plus the per-layer block
//	go run ./bench -aa                  # the suite twice, differences against the bounds
//	go run ./bench -compare a.json b.json
//	go run ./bench -workload train_gemm -seed 7 -seconds 12 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// processStart anchors set-up timing; package initialisation of the
// imported layers (metric registration, worker pool) happens before it
// and is a few hundred microseconds.
var processStart = time.Now()

// env is what a workload needs to run.
type env struct {
	spec    *benchSpec
	seed    uint64
	seconds float64 // length of the measured window
	traced  bool
	// smoke swaps in toy models so tests can drive every workload and
	// check in well under a second each. It measures nothing.
	smoke        bool
	updateGolden bool
	goldenPath   string
	outDir       string // where the trace file goes
	log          io.Writer

	rec *recorder // nil unless traced
	res *result
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// count turns the window length into a whole number of operations of a
// nominal duration; the traced run does a third of them.
func (e *env) count(nominalS float64, min int) int {
	n := int(e.seconds/nominalS + 0.5)
	if e.traced {
		n = (n + 2) / 3
	}
	if n < min {
		n = min
	}
	return n
}

// overrun reports whether a count-sized loop should stop early: step
// counts are fixed so that parent and change do the same work, but a
// machine half as fast as the reference must not double the run.
func (e *env) overrun(start time.Time, done int) bool {
	return done >= 3 && time.Since(start).Seconds() > 1.5*e.seconds
}

// window is the length of one measured load phase; the traced run's is a
// third as long.
func (e *env) window() time.Duration {
	s := e.seconds
	if e.traced {
		s /= 3
	}
	return time.Duration(s * float64(time.Second))
}

// probes is how many one-at-a-time requests a serving probe sends; each
// waits out the 2 ms coalescing deadline, which a smoke run cannot afford
// a hundred times over.
func (e *env) probes(n int) int {
	if e.smoke {
		return n / 8
	}
	return n
}

// setUp builds the workload's rig several times and records how long
// each build took, so that setup_s is a median; the last build is the
// one measured. The traced run, which does not report set-up time, and
// the smoke run build once. discard drops the previous build; a
// collection follows, so that build's memory is not in this one's peak.
// The first build counts from process start.
func (e *env) setUp(build func() error, discard func()) error {
	n := 3
	if e.traced || e.smoke {
		n = 1
	}
	for i := 0; i < n; i++ {
		t0 := processStart
		if i > 0 {
			discard()
			runtime.GC()
			t0 = time.Now()
		}
		if err := build(); err != nil {
			return err
		}
		e.res.Raw.SetupS = append(e.res.Raw.SetupS, time.Since(t0).Seconds())
	}
	return nil
}

var workloads = map[string]func(*env) error{
	"train_gemm":   func(e *env) error { return runTrain(e, trainGEMM(e.smoke)) },
	"train_update": func(e *env) error { return runTrain(e, trainUpdate(e.smoke)) },
	"dist_w2":      func(e *env) error { return runDist(e, trainUpdate(e.smoke)) },
	"serve_q50":    func(e *env) error { return runServe(e, serveQ50) },
	"serve_q100":   func(e *env) error { return runServe(e, serveQ100) },
	"serve_sat":    func(e *env) error { return runServe(e, serveSat) },
}

// runWorkload runs one workload in this process and fills e.res.
func runWorkload(e *env, name string) error {
	run, ok := workloads[name]
	if !ok || !e.spec.hasWorkload(name) {
		return fmt.Errorf("unknown workload %q", name)
	}
	e.res = newResult(e.spec, name, e.seed, e.seconds, e.traced)
	if e.traced {
		e.rec = &recorder{}
	}
	if err := run(e); err != nil {
		return err
	}
	e.res.Raw.PeakRSS = peakRSSMB()
	e.res.summarise()
	if e.traced {
		path, err := e.rec.write(e.outDir, name)
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		e.res.TraceFile = path
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload in this process and print its result as the last line")
		seed     = fs.Uint64("seed", 42, "drives training data, request contents and the arrival schedule (model initialisation is fixed)")
		seconds  = fs.Float64("seconds", 0, "length of each workload's measured window (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics, profiler and tracer on, spans written to bench/out")
		traced   = fs.Bool("traced", false, "with -workload the same as -trace 1; with -all adds a traced run of every workload")
		all      = fs.Bool("all", false, "run every workload, each in fresh processes, and print every end-to-end metric")
		aa       = fs.Bool("aa", false, "run the whole suite twice and print both values of every end-to-end metric against its bound")
		runs     = fs.Int("runs", 1, "with -all: how many times to run the suite (-compare needs several for quartiles)")
		out      = fs.String("out", "bench/out/bench.json", "with -all/-aa: where the JSON document goes")
		compare  = fs.Bool("compare", false, "compare two JSON documents: bench -compare old.json new.json")
		golden   = fs.Bool("update-golden", false, "rewrite bench/golden.json with this run's loss sequences")
		resultTo = fs.String("result", "", "with -workload: also write the full result (raw samples, every metric) to this file")
		smoke    = fs.Bool("smoke", false, "toy models and a short window: exercises every path and check, measures nothing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files: old.json new.json")
			return 2
		}
		return compareDocs(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *all || *aa:
		s := suite{spec: spec, seed: *seed, seconds: *seconds, traced: *traced, smoke: *smoke,
			updateGolden: *golden, out: *out, runs: *runs, stdout: stdout, stderr: stderr}
		if *aa && s.runs < 2 {
			s.runs = 2
		}
		return s.run(*aa)
	case *workload != "":
		e := &env{
			spec: spec, seed: *seed, seconds: *seconds, traced: *trace == 1 || *traced,
			smoke: *smoke, updateGolden: *golden, goldenPath: "bench/golden.json",
			outDir: "bench/out", log: stderr,
		}
		return runOne(e, *workload, *resultTo, stdout, stderr)
	}
	fs.Usage()
	return 2
}

// runOne runs a workload and prints the driver line last on stdout.
func runOne(e *env, name, resultTo string, stdout, stderr io.Writer) int {
	if err := runWorkload(e, name); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	r := e.res
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(stderr, "check %s %-28s %s\n", status, c.Name, c.Detail)
	}
	printResult(stdout, r)
	if resultTo != "" {
		buf, err := json.Marshal(r)
		if err == nil {
			err = os.WriteFile(resultTo, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := r.driverLine()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !r.correct() {
		fmt.Fprintln(stderr, "bench: correctness checks failed")
		return 1
	}
	if r.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d operations failed\n", r.Failed, r.Attempted)
		return 1
	}
	return 0
}

// printResult prints one line per metric: workload metric value unit n=samples.
func printResult(w io.Writer, r *result) {
	line := func(name string, v value) {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d", r.Workload, name, v.Value, v.Unit, v.N)
		if v.Note != "" {
			fmt.Fprintf(w, " (%s)", v.Note)
		}
		fmt.Fprintln(w)
	}
	if !r.Traced {
		for _, d := range r.spec.EndToEnd {
			line(d.Name, r.EndToEnd[d.Name])
		}
	}
	for _, k := range sortedNames(r.PerLayer) {
		line(k, r.PerLayer[k])
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s fail_share %.6g ratio n=%d\n", r.Workload, share, r.Attempted)
}
