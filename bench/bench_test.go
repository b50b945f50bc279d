package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"

	"demystbert/internal/tensor"
)

const specFile = "../BENCHMARK.json"

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.6, 3}, {0.61, 4}, {1, 5}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The tail is the highest whole percentile with at least ten samples
// beyond it, capped at p99 and floored at the median.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {20, 0.5}, {44, 0.77}, {100, 0.90}, {999, 0.98}, {1000, 0.99}, {50000, 0.99}} {
		got := tailQuantile(c.n)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := c.n - (rank(c.n, got) + 1); got > 0.5 && beyond < tailBeyond {
			t.Errorf("tailQuantile(%d) = %v leaves only %d samples beyond", c.n, got, beyond)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles(10, 20) = %v, %v, want 7.5, 22.5", q1, q3)
	}
}

func TestScheduleAndRequestsFollowSeed(t *testing.T) {
	_, l := engineConfig(false, nil)
	gen := func(seed uint64) ([]time.Duration, [][]int) {
		rng := tensor.NewRNG(seed)
		due := poisson(rng, 100, 2*time.Second)
		var toks [][]int
		for _, r := range genRequests(rng, len(due), mid4, l, 0.1) {
			toks = append(toks, r.Tokens)
		}
		return due, toks
	}
	d1, r1 := gen(7)
	d2, r2 := gen(7)
	d3, r3 := gen(8)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(r1, r2) {
		t.Error("the same seed gave a different schedule or different requests")
	}
	if reflect.DeepEqual(d1, d3) || reflect.DeepEqual(r1, r3) {
		t.Error("different seeds gave the same schedule or the same requests")
	}
	if n := len(d1); n < 150 || n > 250 {
		t.Errorf("%d arrivals in 2 s at 100/s", n)
	}
	for i := 1; i < len(d1); i++ {
		if d1[i] < d1[i-1] {
			t.Fatal("arrival times are not ascending")
		}
	}
	for _, toks := range r1 {
		if len(toks) < l.shortLo || len(toks) > l.longHi {
			t.Fatalf("request of %d tokens", len(toks))
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := &recorder{}
	root := r.reserve(0, 1, "root", at(0))
	a := r.add(root, 1, "a", at(10), at(40))
	r.add(root, 1, "b", at(30), at(60))       // overlaps a by 10 ms
	r.add(root, 1, "c", at(90), at(120))      // sticks out of the parent by 20 ms
	r.add(a, 1, "grandchild", at(15), at(20)) // counts against a, not root
	r.finish(root, at(100))
	self := selfTimes(r.spans)
	if got, want := self[root], 40*time.Millisecond; got != want { // 100 − (10..60) − (90..100)
		t.Errorf("root self time %v, want %v", got, want)
	}
	if got, want := self[a], 25*time.Millisecond; got != want {
		t.Errorf("a self time %v, want %v", got, want)
	}
	if by := selfByName(r.spans); by["grandchild"] != 5*time.Millisecond {
		t.Errorf("leaf self time %v, want its duration", by["grandchild"])
	}
	var nilRec *recorder
	if id := nilRec.add(0, 0, "x", at(0), at(1)); id != 0 {
		t.Error("a nil recorder recorded a span")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "tokens_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name     string
		d        metricDecl
		old, new []float64
		want     string
	}{
		{"unchanged", lower, tight, tight, "same"},
		{"slower beyond the bound", lower, tight, scale(tight, 1.2), "worse"},
		{"slower within the bound", lower, tight, scale(tight, 1.05), "same"},
		{"faster beyond the spread", lower, tight, scale(tight, 0.9), "better"},
		{"throughput down beyond the bound", higher, tight, scale(tight, 0.8), "worse"},
		{"throughput up", higher, tight, scale(tight, 1.2), "better"},
		{"spread wider than the bound", lower, wide, scale(wide, 1.02), "unresolved"},
		{"wide, but every new run beats every old run", lower, wide, scale(wide, 0.3), "better"},
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// The declaration has to satisfy the regression driver's contract.
func TestDeclarationMeetsContract(t *testing.T) {
	s := mustSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range s.Workloads {
		use(w.Name)
		if len([]rune(w.Why)) > 200 || w.Why == "" {
			t.Errorf("workload %s: why has %d characters", w.Name, len([]rune(w.Why)))
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	if len(workloads) != len(s.Workloads) {
		t.Errorf("%d workloads implemented, %d declared", len(workloads), len(s.Workloads))
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range append(append([]metricDecl{}, s.EndToEnd...), s.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if m, ok := findMetric(s.EndToEnd, "setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Error("setup_s (s, lower) is not among the end-to-end metrics")
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
}

// Every workload runs, untraced and traced, on toy models: all checks
// pass, every end-to-end metric is measured by every workload, and the
// per-layer names emitted over all traced runs are exactly the declared
// ones (emitting an undeclared one panics in result.layer).
func TestSmokeEveryWorkload(t *testing.T) {
	s := mustSpec(t)
	emitted := map[string]bool{}
	for _, traced := range []bool{false, true} {
		for _, w := range s.Workloads {
			e := &env{spec: s, seed: 3, seconds: 0.2, traced: traced, smoke: true,
				outDir: t.TempDir(), log: io.Discard}
			if err := runWorkload(e, w.Name); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			r := e.res
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.Name, traced, c.Name, c.Detail)
				}
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed", w.Name, traced, r.Attempted, r.Failed)
			}
			line, err := r.driverLine()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics on the result line, want %d", w.Name, traced, len(got.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !finite(m.Value) {
					t.Errorf("%s traced=%v: metric %s missing, wrong unit or not finite: %+v", w.Name, traced, d.Name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if traced {
				if r.TraceFile == "" {
					t.Errorf("%s: the traced run wrote no spans", w.Name)
				}
				for k := range r.PerLayer {
					emitted[k] = true
				}
			}
		}
	}
	for _, d := range s.PerLayer {
		if !emitted[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload's traced run emits it", d.Name)
		}
	}
}

func TestPoolAndDerive(t *testing.T) {
	s := mustSpec(t)
	part := func(w string, ops []float64, tokens int64, wall float64) *result {
		r := newResult(s, w, 1, 1, false)
		r.Raw = raw{OpMS: ops, Tokens: tokens, WallS: wall, SetupS: []float64{1}, PeakRSS: 10}
		r.Attempted = len(ops)
		r.check("x", true, "")
		r.PerLayer["serve.queue_depth_mid"] = value{Value: 2}
		r.PerLayer["serve.queue_depth_end"] = value{Value: 1}
		r.summarise()
		return r
	}
	p := pool([]*result{part("serve_q100", []float64{10, 20, 30}, 300, 1), part("serve_q100", []float64{40, 150}, 500, 1)})
	if got := p.EndToEnd["op_ms_p50"]; got.Value != 30 || got.N != 5 {
		t.Errorf("pooled median %+v, want 30 over 5 samples", got)
	}
	if got := p.EndToEnd["tokens_per_s"].Value; got != 400 {
		t.Errorf("pooled tokens_per_s %v, want 400", got)
	}
	run := suiteRun{Workloads: map[string]*result{
		"serve_q100":   p,
		"serve_q50":    part("serve_q50", []float64{9, 9, 9}, 10, 1),
		"train_update": part("train_update", []float64{1}, 100, 1),
		"dist_w2":      part("dist_w2", []float64{1}, 150, 1),
	}, Derived: map[string]value{}}
	derive(&run)
	// serve_q100's pooled tail (the median here: five samples) is 30 ms,
	// inside the limit; push it over and only 50 req/s still qualifies.
	if got := run.Derived["slo_rate_rps"].Value; got != 100 {
		t.Errorf("slo_rate_rps %v, want 100", got)
	}
	p.Raw.OpMS = []float64{90, 95, 99}
	p.summarise()
	derive(&run)
	if got := run.Derived["slo_rate_rps"].Value; got != 50 {
		t.Errorf("slo_rate_rps %v with serve_q100 over the limit, want 50", got)
	}
	if got := run.Derived["distnet.scaling_eff"].Value; got != 0.75 {
		t.Errorf("scaling_eff %v, want 0.75", got)
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	s := mustSpec(t)
	doc := func(opMS float64, failed int) *document {
		d := &document{}
		for i := 0; i < 3; i++ {
			r := newResult(s, "train_gemm", 1, 1, false)
			r.Raw = raw{OpMS: []float64{opMS}, Tokens: 100, WallS: 1, SetupS: []float64{1}, PeakRSS: 10}
			r.Attempted, r.Failed = 10, failed
			r.summarise()
			d.Runs = append(d.Runs, suiteRun{Workloads: map[string]*result{"train_gemm": r}})
		}
		return d
	}
	var out bytes.Buffer
	if code := compare(s, doc(100, 0), doc(101, 0), &out); code != 0 {
		t.Errorf("a 1%% difference exited %d:\n%s", code, out.String())
	}
	if code := compare(s, doc(100, 0), doc(130, 0), &out); code != 1 {
		t.Errorf("a 30%% slowdown exited %d", code)
	}
	if code := compare(s, doc(100, 0), doc(100, 1), &out); code != 1 {
		t.Errorf("a rise in failed operations exited %d", code)
	}
}
