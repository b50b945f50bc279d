package dist

import (
	"testing"
	"time"
)

func mkBuckets() []MeasuredBucket {
	return []MeasuredBucket{
		{Bwd: 2 * time.Millisecond, Bytes: 256 << 10},
		{Bwd: 3 * time.Millisecond, Bytes: 512 << 10},
		{Bwd: 3 * time.Millisecond, Bytes: 512 << 10},
		{Bwd: 1 * time.Millisecond, Bytes: 1 << 20},
	}
}

var testLink = Link{Bandwidth: 1 << 30, Latency: 20 * time.Microsecond}

func TestPredictDPWorld1IsPureCompute(t *testing.T) {
	fwd, upd := 5*time.Millisecond, 2*time.Millisecond
	p := PredictDP(fwd, upd, mkBuckets(), 1, testLink, true, 1)
	if p.Comm != 0 || p.Exposed != 0 || p.Hidden != 0 {
		t.Fatalf("world=1 must not communicate: %+v", p)
	}
	if want := fwd + 9*time.Millisecond + upd; p.Step != want {
		t.Fatalf("world=1 step %v, want %v", p.Step, want)
	}
}

func TestPredictDPOverlapHidesComm(t *testing.T) {
	fwd, upd := 5*time.Millisecond, 2*time.Millisecond
	for _, world := range []int{2, 4, 8} {
		seq := PredictDP(fwd, upd, mkBuckets(), world, testLink, false, 1)
		ov := PredictDP(fwd, upd, mkBuckets(), world, testLink, true, 1)
		if seq.Exposed != seq.Comm || seq.Hidden != 0 {
			t.Fatalf("world=%d no-overlap must expose all comm: %+v", world, seq)
		}
		if ov.Comm != seq.Comm {
			t.Fatalf("world=%d overlap changed total comm: %v vs %v", world, ov.Comm, seq.Comm)
		}
		if ov.Exposed >= seq.Exposed {
			t.Fatalf("world=%d overlap did not reduce exposed comm: %v vs %v", world, ov.Exposed, seq.Exposed)
		}
		if ov.Exposed+ov.Hidden != ov.Comm {
			t.Fatalf("world=%d exposed+hidden != comm: %+v", world, ov)
		}
		if ov.Step >= seq.Step {
			t.Fatalf("world=%d overlap did not shorten the step: %v vs %v", world, ov.Step, seq.Step)
		}
	}
}

func TestPredictDPDilationScalesCompute(t *testing.T) {
	fwd, upd := 4*time.Millisecond, 2*time.Millisecond
	base := PredictDP(fwd, upd, mkBuckets(), 2, testLink, false, 1)
	dilated := PredictDP(fwd, upd, mkBuckets(), 2, testLink, false, 2)
	if dilated.Comm != base.Comm {
		t.Fatalf("dilation must not touch comm: %v vs %v", dilated.Comm, base.Comm)
	}
	wantCompute := 2 * (base.Step - base.Exposed)
	if got := dilated.Step - dilated.Exposed; got != wantCompute {
		t.Fatalf("2x dilation: compute %v, want %v", got, wantCompute)
	}
	// Dilation < 1 clamps to 1 (compute cannot contract by sharing a host).
	if p := PredictDP(fwd, upd, mkBuckets(), 2, testLink, false, 0.5); p.Step != base.Step {
		t.Fatalf("dilation<1 must clamp: %v vs %v", p.Step, base.Step)
	}
}

func TestPredictDPMatchesRingCost(t *testing.T) {
	// Single bucket, no overlap: comm must be exactly the ring formula.
	b := []MeasuredBucket{{Bwd: time.Millisecond, Bytes: 1 << 20}}
	for _, world := range []int{2, 3, 4} {
		p := PredictDP(0, 0, b, world, testLink, false, 1)
		want := ringTime(1<<20, world, testLink.Bandwidth, testLink.Latency)
		if p.Comm != want {
			t.Fatalf("world=%d comm %v, want ring %v", world, p.Comm, want)
		}
	}
}
