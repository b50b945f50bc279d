package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// suite runs every workload, each in fresh processes: serve.New sets the
// process-wide GEMM path, obs.Default is process-wide, and a trainer's
// garbage would sit in the next workload's peak RSS.
type suite struct {
	spec                        *benchSpec
	seed                        uint64
	seconds                     float64
	traced, smoke, updateGolden bool
	out                         string
	runs                        int
	stdout, stderr              io.Writer
}

// rounds is how many interleaved pieces a workload's window is split
// into (A B C D E F A B C D E F), so that a burst from a noisy neighbour
// cannot land on one workload alone.
const rounds = 2

// suiteRun is one pass over every workload.
type suiteRun struct {
	Workloads map[string]*result `json:"workloads"`
	Derived   map[string]value   `json:"derived"`
}

// document is what -all writes and -compare reads.
type document struct {
	Cores   int        `json:"cores"`
	Seed    uint64     `json:"seed"`
	Seconds float64    `json:"seconds"`
	Runs    []suiteRun `json:"runs"`
}

// child runs one workload in a fresh process and reads back its result.
func (s *suite) child(name string, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(s.out)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, name+".result.json")
	args := []string{"-workload", name, "-result", tmp,
		"-seed", strconv.FormatUint(s.seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if s.smoke {
		args = append(args, "-smoke")
	}
	if s.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = s.stderr // the child's check lines; its metric lines are reprinted pooled
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	defer os.Remove(tmp)
	buf, err := os.ReadFile(tmp)
	if err != nil {
		return nil, err
	}
	r := &result{spec: s.spec}
	if err := json.Unmarshal(buf, r); err != nil {
		return nil, err
	}
	return r, nil
}

// pool merges the rounds of one workload: raw samples are concatenated
// and summarised once, layer metrics are averaged.
func pool(parts []*result) *result {
	r := parts[0]
	for _, p := range parts[1:] {
		r.Raw.merge(p.Raw)
		r.Attempted += p.Attempted
		r.Failed += p.Failed
		r.Checks = append(r.Checks, p.Checks...)
		for k, v := range p.PerLayer {
			a := r.PerLayer[k]
			a.Value += v.Value
			a.N += v.N
			r.PerLayer[k] = a
		}
	}
	for k, v := range r.PerLayer {
		v.Value /= float64(len(parts))
		r.PerLayer[k] = v
	}
	r.Seconds *= float64(len(parts))
	r.summarise()
	return r
}

func (s *suite) once() (suiteRun, error) {
	run := suiteRun{Workloads: map[string]*result{}, Derived: map[string]value{}}
	// Rewriting the record needs each workload's whole sequence from
	// one process, so it is not split into rounds.
	nr := rounds
	if s.updateGolden {
		nr = 1
	}
	parts := map[string][]*result{}
	for round := 0; round < nr; round++ {
		for _, w := range s.spec.Workloads {
			fmt.Fprintf(s.stderr, "bench: %s round %d/%d\n", w.Name, round+1, nr)
			r, err := s.child(w.Name, s.seconds/float64(nr), false)
			if err != nil {
				return run, err
			}
			parts[w.Name] = append(parts[w.Name], r)
		}
	}
	for _, w := range s.spec.Workloads {
		r := pool(parts[w.Name])
		if s.traced {
			fmt.Fprintf(s.stderr, "bench: %s traced\n", w.Name)
			t, err := s.child(w.Name, s.seconds, true)
			if err != nil {
				return run, err
			}
			r.PerLayer, r.TraceFile = t.PerLayer, t.TraceFile
			r.Checks = append(r.Checks, t.Checks...)
			r.summarise() // op_ms_tail comes from the untraced samples
		}
		run.Workloads[w.Name] = r
		printResult(s.stdout, r)
	}
	derive(&run)
	for _, k := range sortedNames(run.Derived) {
		v := run.Derived[k]
		fmt.Fprintf(s.stdout, "suite %s %.6g %s n=%d (%s)\n", k, v.Value, v.Unit, v.N, v.Note)
	}
	return run, nil
}

// derive computes the numbers that need more than one workload.
func derive(run *suiteRun) {
	// slo_rate_rps: the highest fixed rate whose tail latency meets the
	// limit, with 99.9 % of sent requests answered and no growing queue.
	best, n := 0.0, 0
	for _, q := range []struct {
		name string
		rate float64
	}{{"serve_q50", 50}, {"serve_q100", 100}} {
		r, ok := run.Workloads[q.name]
		if !ok {
			continue
		}
		n++
		answered := 1 - float64(r.Failed)/float64(max(r.Attempted, 1))
		if r.PerLayer["op_ms_tail"].Value <= latencyLimitMS && answered >= 0.999 &&
			r.PerLayer["serve.queue_depth_end"].Value <= r.PerLayer["serve.queue_depth_mid"].Value+1 {
			best = q.rate
		}
	}
	if n > 0 {
		run.Derived["slo_rate_rps"] = value{Value: best, Unit: "1/s", N: n,
			Note: fmt.Sprintf("highest of {50, 100} req/s with op_ms_tail ≤ %d ms, ≥ 99.9 %% answered, queue not growing", latencyLimitMS)}
	}
	d, u := run.Workloads["dist_w2"], run.Workloads["train_update"]
	if d != nil && u != nil && u.EndToEnd["tokens_per_s"].Value > 0 {
		run.Derived["distnet.scaling_eff"] = value{
			Value: d.EndToEnd["tokens_per_s"].Value / (distWorld * u.EndToEnd["tokens_per_s"].Value), Unit: "ratio",
			Note: "dist_w2 tokens_per_s ÷ (2 × train_update tokens_per_s)"}
	}
}

func (s *suite) run(aa bool) int {
	doc := document{Cores: runtime.NumCPU(), Seed: s.seed, Seconds: s.seconds}
	status := 0
	for i := 0; i < s.runs; i++ {
		fmt.Fprintf(s.stderr, "bench: suite run %d/%d, %g s per workload, seed %d\n", i+1, s.runs, s.seconds, s.seed)
		run, err := s.once()
		if err != nil {
			fmt.Fprintln(s.stderr, "bench:", err)
			return 1
		}
		doc.Runs = append(doc.Runs, run)
		for _, r := range run.Workloads {
			if !r.correct() || r.Failed > 0 {
				status = 1
			}
		}
	}
	buf, err := json.MarshalIndent(doc, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(s.out), 0o755); err == nil {
			err = os.WriteFile(s.out, buf, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(s.stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(s.stderr, "bench: wrote %s\n", s.out)
	if aa && !s.printAA(doc) {
		status = 1
	}
	return status
}

// worsening is how much worse b is than a, as a share of a (negative
// when b is better).
func worsening(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// printAA prints, for two runs of the same code, both values of every
// end-to-end metric, their relative difference and the bound.
func (s *suite) printAA(doc document) bool {
	a, b := doc.Runs[0], doc.Runs[len(doc.Runs)-1]
	within := true
	fmt.Fprintf(s.stdout, "%-13s %-13s %12s %12s %8s %7s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	for _, w := range s.spec.Workloads {
		for _, d := range s.spec.EndToEnd {
			va, vb := a.Workloads[w.Name].EndToEnd[d.Name].Value, b.Workloads[w.Name].EndToEnd[d.Name].Value
			diff := worsening(d, va, vb)
			flag := ""
			if math.Abs(diff) > d.Bound {
				flag, within = "  OUTSIDE", false
			}
			fmt.Fprintf(s.stdout, "%-13s %-13s %12.5g %12.5g %+7.1f%% %6.0f%%%s\n", w.Name, d.Name, va, vb, 100*diff, 100*d.Bound, flag)
		}
	}
	return within
}
