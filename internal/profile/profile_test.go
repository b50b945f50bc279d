package profile

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.Record(Event{Kernel: "x"})
	ran := false
	p.Time("k", CatOther, Forward, 1, 1, func() { ran = true })
	if !ran {
		t.Fatal("Time on nil profiler must still run f")
	}
	p.Reset()
	if p.KernelCount() != 0 || p.Events() != nil {
		t.Fatal("nil profiler must report empty state")
	}
}

func TestRecordAndEvents(t *testing.T) {
	p := New()
	p.Record(Event{Kernel: "a", Category: CatFCGEMM, Phase: Forward, Duration: time.Millisecond, FLOPs: 100, Bytes: 10})
	p.Record(Event{Kernel: "b", Category: CatGeLU, Phase: Backward, Duration: 2 * time.Millisecond, FLOPs: 5, Bytes: 50})
	if p.KernelCount() != 2 {
		t.Fatalf("KernelCount = %d, want 2", p.KernelCount())
	}
	evs := p.Events()
	if evs[0].Kernel != "a" || evs[1].Kernel != "b" {
		t.Fatal("Events must preserve record order")
	}
	evs[0].Kernel = "mutated"
	if p.Events()[0].Kernel != "a" {
		t.Fatal("Events must return a copy")
	}
}

func TestTimeMeasuresDuration(t *testing.T) {
	p := New()
	p.Time("sleepy", CatOther, Update, 7, 9, func() { time.Sleep(5 * time.Millisecond) })
	evs := p.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	e := evs[0]
	if e.Duration < 4*time.Millisecond {
		t.Fatalf("Duration = %v, want >= ~5ms", e.Duration)
	}
	if e.FLOPs != 7 || e.Bytes != 9 || e.Phase != Update {
		t.Fatalf("metadata not recorded: %+v", e)
	}
}

func TestReset(t *testing.T) {
	p := New()
	p.Record(Event{Kernel: "a"})
	p.Reset()
	if p.KernelCount() != 0 {
		t.Fatal("Reset did not clear events")
	}
}

func TestSummarize(t *testing.T) {
	p := New()
	p.Record(Event{Kernel: "g1", Category: CatFCGEMM, Phase: Forward, Duration: 6 * time.Millisecond, FLOPs: 600, Bytes: 6})
	p.Record(Event{Kernel: "g2", Category: CatFCGEMM, Phase: Backward, Duration: 2 * time.Millisecond, FLOPs: 200, Bytes: 2})
	p.Record(Event{Kernel: "l1", Category: CatLAMBStage1, Phase: Update, Duration: 2 * time.Millisecond, FLOPs: 10, Bytes: 100})

	s := p.Summarize()
	if s.Total.Kernels != 3 || s.Total.Duration != 10*time.Millisecond {
		t.Fatalf("total = %+v", s.Total)
	}
	fc := s.ByCategory[CatFCGEMM]
	if fc.Kernels != 2 || fc.FLOPs != 800 || fc.Bytes != 8 {
		t.Fatalf("FCGEMM stat = %+v", fc)
	}
	if got := s.Share(CatFCGEMM); got != 0.8 {
		t.Fatalf("Share(FCGEMM) = %v, want 0.8", got)
	}
	if got := s.GEMMShare(); got != 0.8 {
		t.Fatalf("GEMMShare = %v, want 0.8", got)
	}
	if got := s.ByPhase[Forward].Duration; got != 6*time.Millisecond {
		t.Fatalf("forward phase duration = %v", got)
	}
}

func TestShareEmptySummary(t *testing.T) {
	s := New().Summarize()
	if s.Share(CatFCGEMM) != 0 || s.GEMMShare() != 0 {
		t.Fatal("empty summary must report zero shares")
	}
}

func TestIntensity(t *testing.T) {
	s := Stat{FLOPs: 100, Bytes: 50}
	if s.Intensity() != 2 {
		t.Fatalf("Intensity = %v, want 2", s.Intensity())
	}
	if (Stat{FLOPs: 10}).Intensity() != 0 {
		t.Fatal("zero-byte Intensity must be 0")
	}
}

func TestCategoriesSortedByDuration(t *testing.T) {
	p := New()
	p.Record(Event{Category: CatGeLU, Duration: 1 * time.Millisecond})
	p.Record(Event{Category: CatFCGEMM, Duration: 5 * time.Millisecond})
	p.Record(Event{Category: CatLinear, Duration: 3 * time.Millisecond})
	cats := p.Summarize().Categories()
	want := []Category{CatFCGEMM, CatLinear, CatGeLU}
	for i := range want {
		if cats[i] != want[i] {
			t.Fatalf("Categories() = %v, want %v", cats, want)
		}
	}
}

func TestCategoriesTieBrokenByName(t *testing.T) {
	p := New()
	p.Record(Event{Category: CatLinear, Duration: time.Millisecond})
	p.Record(Event{Category: CatGeLU, Duration: time.Millisecond})
	cats := p.Summarize().Categories()
	if cats[0] != CatGeLU || cats[1] != CatLinear {
		t.Fatalf("tie-break order = %v", cats)
	}
}

func TestCategoryClassification(t *testing.T) {
	for _, c := range []Category{CatLinear, CatAttnBGEMM, CatFCGEMM} {
		if !c.IsGEMM() {
			t.Errorf("%s should be GEMM", c)
		}
	}
	for _, c := range []Category{CatLAMBStage1, CatLAMBStage2} {
		if c.IsGEMM() {
			t.Errorf("%s should not be GEMM", c)
		}
	}
	if CatGeLU.IsGEMM() {
		t.Error("GeLU misclassified")
	}
}

func TestPhaseString(t *testing.T) {
	if Forward.String() != "FWD" || Backward.String() != "BWD" || Update.String() != "UPD" {
		t.Fatal("phase names wrong")
	}
	if Phase(99).String() != "???" {
		t.Fatal("unknown phase must render as ???")
	}
}

func TestConcurrentRecord(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Record(Event{Kernel: "k", Category: CatOther, Duration: time.Nanosecond})
			}
		}()
	}
	wg.Wait()
	if p.KernelCount() != 8000 {
		t.Fatalf("KernelCount = %d, want 8000", p.KernelCount())
	}
}

func TestWriteReport(t *testing.T) {
	p := New()
	p.Record(Event{Kernel: "g", Category: CatFCGEMM, Phase: Forward, Duration: 8 * time.Millisecond, FLOPs: 80, Bytes: 8})
	p.Record(Event{Kernel: "l", Category: CatLAMBStage1, Phase: Update, Duration: 2 * time.Millisecond, FLOPs: 2, Bytes: 20})
	var sb strings.Builder
	p.Summarize().WriteReport(&sb, "test profile", nil)
	out := sb.String()
	for _, want := range []string{"test profile", "FCGEMM", "LAMBStage1", "TOTAL", "80.0%", "20.0%", "FWD", "UPD"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "modeled") {
		t.Errorf("report without modeled shares has a modeled column:\n%s", out)
	}

	// Modeled shares sit beside the measured ones, and a category only
	// the model has gets a row of its own.
	sb.Reset()
	p.Summarize().WriteReport(&sb, "test profile", map[Category]float64{CatFCGEMM: 0.6, CatLAMBStage1: 0.3, CatGeLU: 0.1})
	lines := strings.Split(sb.String(), "\n")
	for _, want := range []struct{ prefix, share, modeled string }{
		{"category", "share", "modeled"},
		{"FCGEMM", "80.0%", "60.0%"},
		{"LAMBStage1", "20.0%", "30.0%"},
		{"GeLU", "0.0%", "10.0%"},
		{"TOTAL", "100.0%", "100.0%"},
	} {
		found := false
		for _, l := range lines {
			if f := strings.Fields(l); len(f) > 2 && f[0] == want.prefix {
				found = f[len(f)-2] == want.share && f[len(f)-1] == want.modeled
			}
		}
		if !found {
			t.Errorf("no %s row ending in share %s, modeled %s:\n%s", want.prefix, want.share, want.modeled, sb.String())
		}
	}
}

// TestIterationTracking covers BeginIteration/Reset stamping semantics.
func TestIterationTracking(t *testing.T) {
	p := New()
	p.Record(Event{Kernel: "pre"})
	p.BeginIteration()
	p.Record(Event{Kernel: "in1"})
	p.BeginIteration()
	p.Record(Event{Kernel: "in2"})
	p.Record(Event{Kernel: "explicit", Iter: 7})
	evs := p.Events()
	for i, want := range []int{0, 1, 2, 7} {
		if evs[i].Iter != want {
			t.Errorf("event %d Iter = %d, want %d", i, evs[i].Iter, want)
		}
	}
	if p.iter != 2 {
		t.Errorf("iteration = %d, want 2", p.iter)
	}
	p.Reset()
	if p.iter != 0 {
		t.Errorf("iteration after Reset = %d, want 0", p.iter)
	}
	var nilP *Profiler
	nilP.BeginIteration() // a no-op, not a panic
}

// TestNilProfilerZeroAlloc pins the overhead guard: the nil-Profiler
// fast path of Record and Time must not allocate, so uninstrumented
// runs pay nothing for the telemetry hooks.
func TestNilProfilerZeroAlloc(t *testing.T) {
	var p *Profiler
	ev := Event{Kernel: "k", FLOPs: 1, Bytes: 1}
	if n := testing.AllocsPerRun(1000, func() { p.Record(ev) }); n != 0 {
		t.Errorf("nil Record allocates %v per op", n)
	}
	f := func() {}
	if n := testing.AllocsPerRun(1000, func() { p.Time("k", CatOther, Forward, 1, 1, f) }); n != 0 {
		t.Errorf("nil Time allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { p.BeginIteration() }); n != 0 {
		t.Errorf("nil BeginIteration allocates %v per op", n)
	}
}
