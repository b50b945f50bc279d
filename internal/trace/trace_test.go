package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"demystbert/internal/profile"
)

func TestTraceIDStringRoundTrip(t *testing.T) {
	tr := New(0, 16)
	for i := 0; i < 100; i++ {
		id, _ := tr.NewTrace()
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("trace id %q not 16 hex digits", s)
		}
		got, ok := ParseTraceID(s)
		if !ok || got != id {
			t.Fatalf("ParseTraceID(%q) = %v, %v; want %v, true", s, got, ok, id)
		}
	}
	for _, bad := range []string{"", "xyz", "00000000000000", "000000000000000g", "0000000000000000"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestHeadSampling(t *testing.T) {
	tr := New(0, 1024)
	tr.SetSampleEvery(4)
	sampled := 0
	for i := 0; i < 400; i++ {
		id, sc := tr.NewTrace()
		if id == 0 {
			t.Fatal("zero trace id")
		}
		if sc.Sampled() {
			sampled++
			if sc.Trace != id {
				t.Fatal("sampled context carries wrong trace id")
			}
		}
	}
	if sampled != 100 {
		t.Fatalf("1-in-4 sampling kept %d of 400", sampled)
	}
	tr.SetSampleEvery(0)
	if _, sc := tr.NewTrace(); sc.Sampled() {
		t.Fatal("SetSampleEvery(0) still sampling")
	}
}

func TestStepTraceIDDeterministicAcrossRanks(t *testing.T) {
	// Every rank derives the same per-step id with no exchange.
	if StepTraceID(3) != StepTraceID(3) {
		t.Fatal("StepTraceID not deterministic")
	}
	if StepTraceID(3) == StepTraceID(4) {
		t.Fatal("StepTraceID collides across steps")
	}
}

func TestRingBounded(t *testing.T) {
	tr := New(0, 8)
	_, sc := tr.NewTrace()
	t0 := time.Now()
	for i := 0; i < 20; i++ {
		tr.Record(Span{Trace: sc.Trace, Name: "s", Start: t0.Add(time.Duration(i) * time.Millisecond)})
	}
	if tr.Len() != 8 {
		t.Fatalf("ring holds %d spans, cap 8", tr.Len())
	}
	// The 12 oldest spans were overwritten: spans 12..19 remain.
	for i, s := range tr.Spans() {
		if want := t0.Add(time.Duration(12+i) * time.Millisecond); !s.Start.Equal(want) {
			t.Fatalf("retained span %d started at +%v, want +%v", i, s.Start.Sub(t0), want.Sub(t0))
		}
	}
}

func TestSpanNesting(t *testing.T) {
	tr := New(2, 64)
	_, sc := tr.NewTrace()
	root := tr.StartSpan(sc, "root")
	child := tr.StartSpan(root.Context(), "child")
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	var rootSpan, childSpan *Span
	for i := range spans {
		switch spans[i].Name {
		case "root":
			rootSpan = &spans[i]
		case "child":
			childSpan = &spans[i]
		}
	}
	if rootSpan == nil || childSpan == nil {
		t.Fatal("missing spans")
	}
	if childSpan.Parent != rootSpan.ID {
		t.Fatal("child does not reference root")
	}
	if rootSpan.Rank != 2 || childSpan.Rank != 2 {
		t.Fatal("rank not stamped")
	}
}

// TestNilTracerZeroAlloc pins the off-path contract: a nil tracer and
// an unsampled context must both cost zero allocations — the same
// discipline as profile.TestNilProfilerZeroAlloc, which is what keeps
// serving goodput flat when tracing is disabled.
func TestNilTracerZeroAlloc(t *testing.T) {
	var nilT *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := nilT.StartSpan(SpanContext{Trace: 1}, "x")
		sp.End()
		nilT.Record(Span{Trace: 1})
		nilT.SetStep(3)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocates %.1f per op", allocs)
	}

	tr := New(0, 16)
	unsampled := SpanContext{} // head-based sampling said no
	allocs = testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan(unsampled, "x")
		sp.End()
		tr.Record(Span{}) // zero trace id: dropped before locking
	})
	if allocs != 0 {
		t.Fatalf("unsampled path allocates %.1f per op", allocs)
	}
}

func TestEstimateOffsetPicksMinRTT(t *testing.T) {
	samples := []OffsetSample{
		{RTT: 5 * time.Millisecond, Offset: 900 * time.Microsecond}, // congested
		{RTT: 100 * time.Microsecond, Offset: 250 * time.Microsecond},
		{RTT: 2 * time.Millisecond, Offset: -40 * time.Microsecond},
	}
	if got := EstimateOffset(samples); got != 250*time.Microsecond {
		t.Fatalf("EstimateOffset = %v, want 250µs", got)
	}
	if EstimateOffset(nil) != 0 {
		t.Fatal("empty samples should estimate zero")
	}
}

func TestNewOffsetSampleRecoversKnownSkew(t *testing.T) {
	// Worker clock runs 7ms ahead of rank 0. A symmetric exchange with
	// 1ms each way must recover exactly +7ms.
	skew := 7 * time.Millisecond
	base := time.Unix(1000, 0)
	t1 := base.Add(skew)                           // local send
	t2 := base.Add(1 * time.Millisecond)           // rank 0 replies (its clock)
	t3 := base.Add(skew).Add(2 * time.Millisecond) // local receive
	s := NewOffsetSample(t1, t3, t2)
	if s.Offset != skew {
		t.Fatalf("offset = %v, want %v", s.Offset, skew)
	}
	if s.RTT != 2*time.Millisecond {
		t.Fatalf("rtt = %v", s.RTT)
	}
}

// TestMergeAlignsInjectedClockSkew is the cross-rank merge-under-skew
// pin: two ranks record the same physical instant on clocks 50ms apart;
// after Merge with the measured offsets, the spans must land within the
// offset-estimation error (zero here, since the offsets are exact).
func TestMergeAlignsInjectedClockSkew(t *testing.T) {
	base := time.Unix(2000, 0)
	skew := 50 * time.Millisecond

	// Physically simultaneous "step" spans, stamped by skewed clocks.
	rank0 := Shard{Rank: 0, Offset: 0, Spans: []Span{
		{Trace: StepTraceID(1), Name: "step", Step: 1, Start: base, Dur: 10 * time.Millisecond},
	}}
	rank1 := Shard{Rank: 1, Offset: skew, Spans: []Span{
		{Trace: StepTraceID(1), Name: "step", Step: 1, Start: base.Add(skew), Dur: 10 * time.Millisecond},
	}}
	merged := Merge([]Shard{rank0, rank1})
	if len(merged) != 2 {
		t.Fatalf("merged %d spans", len(merged))
	}
	if !merged[0].Start.Equal(merged[1].Start) {
		t.Fatalf("aligned starts differ: %v vs %v (skew not removed)",
			merged[0].Start, merged[1].Start)
	}
	if merged[0].Rank == merged[1].Rank {
		t.Fatal("merge lost a rank")
	}
	// Without the offset the spans would sit 50ms apart — make sure the
	// test would actually catch a regression.
	raw := Merge([]Shard{rank0, {Rank: 1, Offset: 0, Spans: rank1.Spans}})
	if raw[0].Start.Equal(raw[1].Start) {
		t.Fatal("test is vacuous: skew missing from input")
	}
}

// TestChromeTraceTrackOrdering pins the merged Perfetto file's
// per-track invariants: within each tid, slices are emitted in
// non-decreasing timestamp order and child spans lie inside their
// parents — what makes the file render as properly nested tracks.
func TestChromeTraceTrackOrdering(t *testing.T) {
	base := time.Unix(3000, 0)
	tr0 := New(0, 64)
	tr1 := New(1, 64)
	for step := 1; step <= 2; step++ {
		for i, tr := range []*Tracer{tr0, tr1} {
			off := time.Duration(i) * 25 * time.Millisecond // injected skew
			start := base.Add(time.Duration(step) * 100 * time.Millisecond).Add(off)
			sc := tr.FixedTrace(StepTraceID(step))
			root := SpanID(uint64(step*10 + i))
			tr.Record(Span{Trace: sc.Trace, ID: root, Name: "step", Step: step,
				Start: start, Dur: 90 * time.Millisecond})
			tr.Record(Span{Trace: sc.Trace, Parent: root, Name: "fwd", Step: step,
				Start: start.Add(time.Millisecond), Dur: 30 * time.Millisecond})
			tr.Record(Span{Trace: sc.Trace, Parent: root, Name: "bwd", Step: step,
				Start: start.Add(32 * time.Millisecond), Dur: 50 * time.Millisecond})
		}
	}
	merged := Merge([]Shard{
		{Rank: 0, Offset: 0, Spans: tr0.Spans()},
		{Rank: 1, Offset: 25 * time.Millisecond, Spans: tr1.Spans()},
	})

	kernels := []profile.Event{
		{Kernel: "sgemm", Category: profile.CatLinear, Phase: profile.Forward, Iter: 1,
			Start: base.Add(105 * time.Millisecond), Duration: 5 * time.Millisecond,
			FLOPs: 2000, Bytes: 640},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, merged, kernels); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	perTrack := map[int][]int{}
	for i, e := range events {
		if e.Ph != "X" {
			continue
		}
		perTrack[e.TID] = append(perTrack[e.TID], i)
	}
	if len(perTrack) != 3 { // rank 0, rank 1, kernels
		t.Fatalf("expected 3 tracks, got %d", len(perTrack))
	}
	for tid, idxs := range perTrack {
		last := -1.0
		for _, i := range idxs {
			if events[i].TS < last {
				t.Fatalf("track %d out of order at %q (ts %.1f after %.1f)",
					tid, events[i].Name, events[i].TS, last)
			}
			last = events[i].TS
		}
	}
	// The kernel slice carries the profiler's metadata as args.
	for _, e := range events {
		if e.Name != "sgemm" {
			continue
		}
		want := map[string]string{"phase": "FWD", "iter": "1", "flops": "2000", "bytes": "640"}
		for k, v := range want {
			if e.Args[k] != v {
				t.Errorf("kernel slice arg %s = %q, want %q", k, e.Args[k], v)
			}
		}
	}
	// Child containment: every span with a parent lies inside it.
	byID := map[string]int{}
	for i, e := range events {
		if e.Ph == "X" && e.Args["span"] != "" {
			byID[e.Args["span"]] = i
		}
	}
	checked := 0
	for _, e := range events {
		pid := e.Args["parent"]
		if e.Ph != "X" || pid == "" {
			continue
		}
		pi, ok := byID[pid]
		if !ok {
			t.Fatalf("span %q references missing parent %s", e.Name, pid)
		}
		p := events[pi]
		if e.TS < p.TS || e.TS+e.Dur > p.TS+p.Dur+0.001 {
			t.Fatalf("span %q [%f,%f] escapes parent %q [%f,%f]",
				e.Name, e.TS, e.TS+e.Dur, p.Name, p.TS, p.TS+p.Dur)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no parent/child pairs checked")
	}
	// The two ranks' step spans must be aligned (skew removed): equal ts.
	var stepTS []float64
	for _, e := range events {
		if e.Name == "step" && e.Args["step"] == "1" {
			stepTS = append(stepTS, e.TS)
		}
	}
	if len(stepTS) != 2 || stepTS[0] != stepTS[1] {
		t.Fatalf("step-1 spans not clock-aligned across tracks: %v", stepTS)
	}
}

func TestStragglersNamesGatingRank(t *testing.T) {
	base := time.Unix(4000, 0)
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	tid := StepTraceID(1)
	// Rank 0: bwd ends at 50ms, bucket 0 comm hidden (ends 45ms),
	// bucket 1 exposed 10ms past bwd end.
	// Rank 1: bwd ends at 70ms, all comm hidden -> rank 1 gates via bwd?
	// No: rank 0's bucket 1 ends at 60ms < 70ms, so rank 1 gates by bwd.
	spans := []Span{
		{Trace: tid, Name: "step", Step: 1, Rank: 0, Start: base, Dur: ms(80)},
		{Trace: tid, Name: "bwd", Step: 1, Rank: 0, Start: base.Add(ms(10)), Dur: ms(40)},
		{Trace: tid, Name: "allreduce.b0", Step: 1, Rank: 0, Start: base.Add(ms(20)), Dur: ms(25)},
		{Trace: tid, Name: "allreduce.b1", Step: 1, Rank: 0, Start: base.Add(ms(48)), Dur: ms(12)},
		{Trace: tid, Name: "step", Step: 1, Rank: 1, Start: base, Dur: ms(80)},
		{Trace: tid, Name: "bwd", Step: 1, Rank: 1, Start: base.Add(ms(10)), Dur: ms(60)},
		{Trace: tid, Name: "allreduce.b0", Step: 1, Rank: 1, Start: base.Add(ms(20)), Dur: ms(25)},
	}
	reps := Stragglers(spans)
	if len(reps) != 1 {
		t.Fatalf("got %d step reports", len(reps))
	}
	r := reps[0]
	if r.Step != 1 || r.GatingRank != 1 || r.GatingWhat != "bwd" {
		t.Fatalf("gating = rank %d by %q, want rank 1 by bwd", r.GatingRank, r.GatingWhat)
	}
	// Rank 0 ready at 60ms (bucket 1 end), rank 1 at 70ms -> spread 10ms.
	if r.SpreadUS < 9_999 || r.SpreadUS > 10_001 {
		t.Fatalf("spread = %.0fus, want 10000", r.SpreadUS)
	}
	var r0 *RankStep
	for i := range r.Ranks {
		if r.Ranks[i].Rank == 0 {
			r0 = &r.Ranks[i]
		}
	}
	if r0 == nil {
		t.Fatal("rank 0 missing")
	}
	// Bucket 0 fully hidden, bucket 1 exposed 10ms (48+12=60 vs bwd end 50).
	if len(r0.Buckets) != 2 {
		t.Fatalf("rank 0 has %d buckets", len(r0.Buckets))
	}
	if r0.Buckets[0].ExposedUS != 0 {
		t.Fatalf("bucket 0 exposed %.0fus, want 0", r0.Buckets[0].ExposedUS)
	}
	if r0.Buckets[1].ExposedUS < 9_999 || r0.Buckets[1].ExposedUS > 10_001 {
		t.Fatalf("bucket 1 exposed %.0fus, want 10000", r0.Buckets[1].ExposedUS)
	}
	var tbl bytes.Buffer
	WriteStragglerTable(&tbl, reps)
	if !bytes.Contains(tbl.Bytes(), []byte("gating-rank")) {
		t.Fatal("table missing header")
	}
}
