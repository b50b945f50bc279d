package kernels

import (
	"runtime"
	"testing"
	"time"

	"demystbert/internal/obs"
)

// counterDelta runs f and returns how much the counter moved. Counters
// are process-global and other tests run kernels, so assertions are on
// deltas, not absolute values, and the heavier checks run the workload
// in isolation within one test body.
func counterDelta(c *obs.Counter, f func()) int64 {
	before := c.Value()
	f()
	return c.Value() - before
}

func TestPoolDispatchCounters(t *testing.T) {
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_ = i * i
		}
	}

	old := SetMaxWorkers(1)
	if d := counterDelta(poolInline, func() { parallelFor(1024, heavy, body) }); d != 1 {
		t.Errorf("serial pool: inline delta %d, want 1", d)
	}
	SetMaxWorkers(4)
	if d := counterDelta(poolDispatches, func() { parallelFor(1024, heavy, body) }); d != 1 {
		t.Errorf("parallel pool: dispatch delta %d, want 1", d)
	}
	if d := counterDelta(poolGrains, func() { parallelFor(1024, heavy, body) }); d < 2 {
		t.Errorf("parallel pool: grain delta %d, want >= 2", d)
	}
	SetMaxWorkers(old)
}

// TestPoolHotAndParkCounters: the workers of a saturated pool take
// regions handed to them back to back inside their hot window; left alone
// they park, once. Every live worker is enlisted (earlier tests may have
// grown the pool), because a send on workCh prefers a parked receiver to a
// polling one.
func TestPoolHotAndParkCounters(t *testing.T) {
	old := SetMaxWorkers(max(2, int(spawned.Load())+1))
	defer SetMaxWorkers(old)
	// heat is settled only when a region starts or ends, so read between
	// two tests it still says "saturated" long after every worker has
	// parked, and saturate would return at once on a cold pool. Start from
	// none: saturate then has to earn it with regions of its own, which
	// wake every worker this test enlists, whatever ran before (this test
	// included, under -count).
	heat.Store(0)
	body := &funcBody{f: func(lo, hi int) { busyFor(50 * time.Microsecond) }}
	saturate(t, 64, body) // every worker is now inside its window

	hot := counterDelta(poolHotPickups, func() {
		for i := 0; i < 100; i++ {
			parallelRun(64, 1, body)
		}
	})
	// With one P the caller finishes and steals its own handles before a
	// worker is ever scheduled.
	if runtime.GOMAXPROCS(0) > 1 && hot < 50 {
		t.Errorf("100 back-to-back regions: %d hot pickups, want >= 50", hot)
	}
	const idle = 50 * time.Millisecond
	if parks := counterDelta(poolParks, func() { time.Sleep(idle) }); parks < 1 {
		t.Errorf("idle for %v: park delta %d, want >= 1", idle, parks)
	}
	if again := counterDelta(poolParks, func() { time.Sleep(idle) }); again != 0 {
		t.Errorf("already parked: park delta %d, want 0", again)
	}
}

// TestPackCacheCounters pins the pack-on-reuse sequence: exactly one of
// the four counters moves per lookup, and misses/rebuilds move only when
// panels were built.
func TestPackCacheCounters(t *testing.T) {
	b := make([]float32, 64*48)
	for i := range b {
		b[i] = float32(i%7) - 3
	}
	var pc PackCache
	counters := []*obs.Counter{packCacheDeferred, packCacheMisses, packCacheRebuilds, packCacheHits}
	names := []string{"deferred", "misses", "rebuilds", "hits"}
	step := func(what string, want *obs.Counter, lookup func() *PackedB) {
		t.Helper()
		before := make([]int64, len(counters))
		for i, c := range counters {
			before[i] = c.Value()
		}
		pb := lookup()
		for i, c := range counters {
			d, wantD := c.Value()-before[i], int64(0)
			if c == want {
				wantD = 1
			}
			if d != wantD {
				t.Errorf("%s: %s moved by %d, want %d", what, names[i], d, wantD)
			}
		}
		if built := pb.buf != nil; built != (want != packCacheDeferred) {
			t.Errorf("%s: panels built = %v", what, built)
		}
	}
	get := func(transB bool, n, k int, gen uint64) func() *PackedB {
		return func() *PackedB { return pc.Get(GEMMPathAuto, transB, n, k, b, gen) }
	}

	step("first use", packCacheDeferred, get(false, 48, 64, 1))
	step("second use", packCacheMisses, get(false, 48, 64, 1))
	step("third use", packCacheHits, get(false, 48, 64, 1))
	// Same shape, moved generation: deferred again, then a rebuild, not a
	// cold miss.
	step("new generation", packCacheDeferred, get(false, 48, 64, 2))
	step("new generation, second use", packCacheRebuilds, get(false, 48, 64, 2))
	// A generation used once still leaves the next one's build a rebuild.
	step("generation used once", packCacheDeferred, get(false, 48, 64, 3))
	step("generation after it", packCacheDeferred, get(false, 48, 64, 4))
	step("generation after it, second use", packCacheRebuilds, get(false, 48, 64, 4))
	// The other orientation is its own slot: cold, and Warm builds at once.
	step("Warm, cold", packCacheMisses, func() *PackedB { return pc.Warm(true, 64, 48, b, 4) })
	step("after Warm", packCacheHits, get(true, 64, 48, 4))
	step("Warm, warm", packCacheHits, func() *PackedB { return pc.Warm(true, 64, 48, b, 4) })
	step("Warm, new generation", packCacheRebuilds, func() *PackedB { return pc.Warm(true, 64, 48, b, 5) })
	// The forced fused route is the pre-packed route: it builds at once.
	step("forced fused, new generation", packCacheRebuilds, func() *PackedB { return pc.Get(GEMMPathFused, false, 48, 64, b, 5) })
	var cold PackCache
	step("forced fused, cold", packCacheMisses, func() *PackedB { return cold.Get(GEMMPathFused, false, 48, 64, b, 0) })
}

// TestBatchedRoutingCounters: the one batched counter left (bench/ reads it
// by name) counts BatchedGEMM calls that run a batch; a batch of one is a
// plain GEMM and a quick return runs nothing.
func TestBatchedRoutingCounters(t *testing.T) {
	const batch, m, n, k = 4, 16, 16, 8
	a := make([]float32, batch*m*k)
	b := make([]float32, batch*k*n)
	c := make([]float32, batch*m*n)
	run := func(batch int, alpha float32) func() {
		return func() { BatchedGEMM(batch, false, false, m, n, k, alpha, a, m*k, b, k*n, 0, c, m*n) }
	}
	if d := counterDelta(batchedGEMMRuns, run(batch, 1)); d != 1 {
		t.Errorf("batch of %d: delta %d, want 1", batch, d)
	}
	if d := counterDelta(batchedGEMMRuns, run(1, 1)); d != 0 {
		t.Errorf("batch of 1: delta %d, want 0", d)
	}
	if d := counterDelta(batchedGEMMRuns, run(batch, 0)); d != 0 {
		t.Errorf("alpha=0 quick return: delta %d, want 0", d)
	}
}
