package dist

import (
	"testing"
	"time"

	"demystbert/internal/device"
	"demystbert/internal/model"
	"demystbert/internal/opgraph"
	"demystbert/internal/perfmodel"
)

func baseWorkload() opgraph.Workload {
	return opgraph.Phase1(model.BERTLarge(), 16, opgraph.FP32)
}

func TestRingAllReduceFormula(t *testing.T) {
	dev := device.MI100()
	// 2·(D-1)/D·bytes/link + 2·(D-1)·latency.
	bytes := int64(32e9) // one second of link time
	got := RingAllReduce(bytes, 2, dev)
	want := time.Second + 2*dev.InterconnectLatency
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("2-device allreduce = %v, want ~%v", got, want)
	}
	if RingAllReduce(bytes, 1, dev) != 0 {
		t.Fatal("single device needs no communication")
	}
	if RingAllReduce(0, 8, dev) != 0 {
		t.Fatal("zero bytes needs no communication")
	}
}

func TestRingAllReduceScalesWithDevices(t *testing.T) {
	dev := device.MI100()
	// The transfer term approaches 2·bytes/link as D grows; time must be
	// monotonically non-decreasing in D.
	prev := time.Duration(0)
	for _, d := range []int{2, 4, 8, 32, 128} {
		cur := RingAllReduce(1<<30, d, dev)
		if cur < prev {
			t.Fatalf("allreduce time decreased at D=%d", d)
		}
		prev = cur
	}
}

// computeTotal sums a profile's compute segments.
func computeTotal(p Profile) time.Duration {
	var t time.Duration
	for _, d := range p.Compute {
		t += d
	}
	return t
}

func TestSingleGPUProfile(t *testing.T) {
	r := perfmodel.Run(opgraph.Build(baseWorkload()), device.MI100())
	p := SingleGPU("S1", r)
	if p.Total != r.Total || p.Comm != 0 {
		t.Fatal("single-GPU profile must match the result with no comm")
	}
	if computeTotal(p) != r.Total {
		t.Fatal("compute segments must sum to the result total")
	}
}

// TestFig11DataParallel asserts Section 5.2's D1/D2 claims: without
// overlap ~19% of runtime is gradient communication; with overlap the
// profile is close to single-GPU (Obs. 5).
func TestFig11DataParallel(t *testing.T) {
	r := perfmodel.Run(opgraph.Build(baseWorkload()), device.MI100())

	d1 := DataParallel("D1", r, 128, false)
	if s := d1.CommShare(); s < 0.13 || s > 0.30 {
		t.Errorf("D1 comm share %.3f outside [0.13, 0.30] (paper ~19%%)", s)
	}

	d2 := DataParallel("D2", r, 128, true)
	if s := d2.CommShare(); s > 0.05 {
		t.Errorf("D2 exposed comm share %.3f should be near zero with overlap", s)
	}
	if d2.HiddenComm == 0 {
		t.Error("D2 must report overlapped communication")
	}
	// Obs. 5: D2 looks like S1.
	ratio := float64(d2.Total) / float64(r.Total)
	if ratio > 1.06 {
		t.Errorf("D2 total %.3fx of single-GPU; overlap should hide nearly all comm", ratio)
	}
	if d1.Total <= d2.Total {
		t.Error("no-overlap DP must be slower than overlapped DP")
	}
}

// TestFig11TensorSlicing asserts Section 5.2's T1/T2 claims.
func TestFig11TensorSlicing(t *testing.T) {
	dev := device.MI100()
	w := baseWorkload()

	t1 := TensorSlicing("T1", w, 2, dev)
	if s := t1.CommShare(); s < 0.05 || s > 0.16 {
		t.Errorf("T1 comm share %.3f outside [0.05, 0.16] (paper ~9%%)", s)
	}

	w64 := w
	w64.B = 64
	t2 := TensorSlicing("T2", w64, 8, dev)
	if s := t2.CommShare(); s < 0.30 || s > 0.55 {
		t.Errorf("T2 comm share %.3f outside [0.30, 0.55] (paper ~42%%)", s)
	}

	// Takeaway 13: communication share grows with slicing ways.
	if t2.CommShare() <= t1.CommShare() {
		t.Error("8-way TS must expose more communication than 2-way")
	}

	// Takeaway 12: LAMB share drops as parameters split across devices.
	s1 := SingleGPU("S1", perfmodel.Run(opgraph.Build(w), dev))
	if t1.Share(opgraph.ClassLAMB) >= s1.Share(opgraph.ClassLAMB) {
		t.Error("2-way TS must shrink LAMB's share")
	}
	if t2.Share(opgraph.ClassLAMB) > 0.05 {
		t.Errorf("8-way TS LAMB share %.3f should be negligible", t2.Share(opgraph.ClassLAMB))
	}
}

// T2 also shows the replicated memory-bound layers (DR+RC+LN) gaining
// share with device count (Section 5.2's final observation).
func TestReplicatedLayersGainShare(t *testing.T) {
	dev := device.MI100()
	w := baseWorkload()
	s1 := perfmodel.Run(opgraph.Build(w), dev)

	w8 := w
	w8.B = 64
	w8.SliceWays = 8
	t2 := perfmodel.Run(opgraph.Build(w8), dev)

	share := func(r *perfmodel.Result) float64 {
		return r.CategoryShare("DRRCLN")
	}
	if share(t2) <= share(s1) {
		t.Errorf("DR+RC+LN share must grow under 8-way TS: %.3f vs %.3f", share(t2), share(s1))
	}
}

func TestFig11ProducesFiveBars(t *testing.T) {
	profiles := Fig11(baseWorkload(), device.MI100())
	if len(profiles) != 5 {
		t.Fatalf("Fig11 produced %d bars, want 5", len(profiles))
	}
	for _, p := range profiles {
		if p.Total <= 0 {
			t.Errorf("%s has non-positive total", p.Name)
		}
	}
	// Ordering sanity: D1 slower than D2; T2's comm dominant.
	if profiles[1].Total <= profiles[2].Total {
		t.Error("D1 must be slower than D2")
	}
}

func TestDataParallelMoreDevicesMoreComm(t *testing.T) {
	r := perfmodel.Run(opgraph.Build(baseWorkload()), device.MI100())
	p8 := DataParallel("d", r, 8, false)
	p128 := DataParallel("d", r, 128, false)
	if p128.Comm <= p8.Comm {
		t.Error("ring allreduce cost must grow with device count")
	}
}

func TestEmptyProfileShares(t *testing.T) {
	var p Profile
	if p.CommShare() != 0 || p.Share(opgraph.ClassLAMB) != 0 {
		t.Fatal("empty profile must report zero shares")
	}
}

// TS exposed communication share grows monotonically with slicing ways
// (Takeaway 13 generalized).
func TestTSCommMonotoneInWays(t *testing.T) {
	dev := device.MI100()
	w := opgraph.Phase1(model.BERTLarge(), 32, opgraph.FP32)
	prev := -1.0
	for _, m := range []int{2, 4, 8, 16} {
		p := TensorSlicing("ts", w, m, dev)
		if p.CommShare() <= prev {
			t.Fatalf("comm share not monotone at m=%d: %.3f <= %.3f", m, p.CommShare(), prev)
		}
		prev = p.CommShare()
	}
}
