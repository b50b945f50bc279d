package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"demystbert/internal/tensor"
)

// heavy is a per-index element count that makes every region of two or
// more indices fork, however small n is.
const heavy = minForkWork

// widthPools holds the test binary's pool of each width under test,
// built on first use: like every pool, it lives as long as the process.
var (
	widthPoolsMu sync.Mutex
	widthPools   = map[int]*Pool{}
)

// poolOf returns the test binary's pool of width w.
func poolOf(w int) *Pool {
	widthPoolsMu.Lock()
	defer widthPoolsMu.Unlock()
	if widthPools[w] == nil {
		widthPools[w] = NewPool(w)
	}
	return widthPools[w]
}

// TestParallelForCoversExactlyOnce: every index in [0, n) must be visited
// exactly once, for worker counts above and below the chunk count and for
// awkward n.
func TestParallelForCoversExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{1, 3, 4, 5, 63, 64, 1000, 1021} {
			pool := poolOf(w)
			counts := make([]int32, n)
			parallelFor(pool, n, grainFor(pool, n, heavy), func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("w=%d n=%d: bad range [%d,%d)", w, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("w=%d n=%d: index %d visited %d times", w, n, i, c)
				}
			}
		}
	}
}

// TestParallelRunDynamicChunking: a deliberately skewed workload must not
// serialize behind one slow chunk — verified structurally: with grain g,
// no runRange span may exceed g.
func TestParallelRunDynamicChunking(t *testing.T) {
	pool := poolOf(4)
	const n, grain = 1000, 16
	var calls, covered atomic.Int64
	parallelFor(pool, n, grain, func(lo, hi int) {
		if hi-lo > grain {
			t.Errorf("chunk [%d,%d) exceeds grain %d", lo, hi, grain)
		}
		calls.Add(1)
		covered.Add(int64(hi - lo))
	})
	if covered.Load() != n {
		t.Fatalf("covered %d of %d indices", covered.Load(), n)
	}
	if want := int64((n + grain - 1) / grain); calls.Load() != want {
		t.Fatalf("expected %d chunks, got %d", want, calls.Load())
	}
}

// TestParallelNested: dispatch from inside a pool worker must complete.
// Joining callers steal queued handles from the work channel while they
// wait, so the region drains even when every pool worker is itself blocked
// in a nested join. This must hold with no idle workers left over from
// other tests — the scenario that deadlocked the WaitGroup-based join when
// run in isolation (`-run TestParallelNested`) or under -shuffle.
func TestParallelNested(t *testing.T) {
	pool := NewPool(2) // fresh: no idle workers left over from other tests
	var total atomic.Int64
	parallelFor(pool, 8, grainFor(pool, 8, heavy), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			parallelFor(pool, 100, grainFor(pool, 100, heavy), func(l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if total.Load() != 800 {
		t.Fatalf("nested dispatch covered %d of 800", total.Load())
	}
}

// TestParallelNestedSaturated: every outer chunk nests two more levels
// while the worker bound exceeds the chunk count, so all pool workers and
// the caller sit in joins simultaneously. Covered-index accounting proves
// every level ran to completion.
func TestParallelNestedSaturated(t *testing.T) {
	pool := poolOf(4)
	var total atomic.Int64
	parallelFor(pool, 16, grainFor(pool, 16, heavy), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			parallelFor(pool, 64, grainFor(pool, 64, heavy), func(l, h int) {
				for j := l; j < h; j++ {
					parallelFor(pool, 32, grainFor(pool, 32, heavy), func(l2, h2 int) {
						total.Add(int64(h2 - l2))
					})
				}
			})
		}
	})
	if want := int64(16 * 64 * 32); total.Load() != want {
		t.Fatalf("nested dispatch covered %d of %d", total.Load(), want)
	}
}

// TestParallelNestedConcurrentRoots: several independent goroutines each
// run nested dispatch at once, so regions from different roots interleave
// on the shared work channel and waiters steal handles that belong to
// other roots' regions.
func TestParallelNestedConcurrentRoots(t *testing.T) {
	pool := poolOf(3)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var total atomic.Int64
			parallelFor(pool, 8, grainFor(pool, 8, heavy), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					parallelFor(pool, 50, grainFor(pool, 50, heavy), func(l, h int) {
						total.Add(int64(h - l))
					})
				}
			})
			if total.Load() != 400 {
				t.Errorf("root covered %d of 400", total.Load())
			}
		}()
	}
	wg.Wait()
}

// TestPoolWidthsRunConcurrently: a pool's width is fixed when it is built
// (a width below 1 is 1), so pools of different widths can run the same
// regions side by side with bitwise-equal results, and a width-1 pool
// never spawns a worker: every region runs inline.
func TestPoolWidthsRunConcurrently(t *testing.T) {
	if w := NewPool(0).width; w != 1 {
		t.Fatalf("NewPool(0) has width %d, want 1", w)
	}
	r := tensor.NewRNG(21)
	m, n, k := 96, 96, 96
	a := randSlice(r, m*k)
	b := randSlice(r, k*n)
	x := randSlice(r, 100_000)
	one, four := NewPool(1), NewPool(4)
	run := func(pool *Pool) (c []float32, sq float64) {
		c = make([]float32, m*n)
		GEMMPathAuto.GEMM(pool, false, false, m, n, k, 1, a, b, 0, c)
		return c, pool.SumSquares(x)
	}
	wantC, wantSq := run(one)
	var wg sync.WaitGroup
	for _, pool := range []*Pool{one, four, one, four} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				c, sq := run(pool)
				if i := firstBitDiff(c, wantC); i >= 0 || sq != wantSq {
					t.Errorf("width %d, iter %d: GEMM differs at %d, SumSquares %v vs %v", pool.width, iter, i, sq, wantSq)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := one.spawned.Load(); s != 0 {
		t.Errorf("width-1 pool spawned %d workers, want 0", s)
	}
}

// TestSumSquaresInlineFallbackCoversAllSlots: when parallelRun takes the
// inline path it delivers one range spanning every block, and sumSqRange
// must overwrite every partial slot — stale values left in the pooled
// slice by a previous call must not leak into the reduction.
func TestSumSquaresInlineFallbackCoversAllSlots(t *testing.T) {
	const n = 10_000
	x := make([]float32, n)
	for i := range x {
		x[i] = 1
	}
	chunks := (n + sumSqBlock - 1) / sumSqBlock
	part := make([]float64, chunks)
	for i := range part {
		part[i] = 1e9 // poison: any slot not rewritten corrupts the sum
	}
	sumSqBodies.run(nil, chunks, chunks, sumSqArgs{x: x, part: part}, sumSqRange) // one chunk: inline
	var sum float64
	for _, p := range part {
		sum += p
	}
	if sum != n {
		t.Fatalf("inline runRange left stale partials: sum %v, want %v", sum, float64(n))
	}
}

// TestSumSquaresPoolDeterministic: the pooled reduction must agree with
// the serial loop and stay deterministic across repeats (partials are
// reduced in chunk order, not completion order).
func TestSumSquaresPoolDeterministic(t *testing.T) {
	r := tensor.NewRNG(22)
	x := randSlice(r, 100_000)
	var want float64
	for _, v := range x {
		want += float64(v) * float64(v)
	}
	pool := poolOf(4)
	first := pool.SumSquares(x)
	if diff := first - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("SumSquares parallel %v vs serial %v", first, want)
	}
	for i := 0; i < 10; i++ {
		if got := pool.SumSquares(x); got != first {
			t.Fatalf("SumSquares not deterministic: %v vs %v", got, first)
		}
	}
}

// busyFor spins for d: a work item of known length, whatever the core's
// speed.
func busyFor(d time.Duration) {
	for t := time.Now(); time.Since(t) < d; {
	}
}

// saturate runs body's region back to back until the pool counts as
// saturated, which is when its workers start to stay hot.
func saturate(tb testing.TB, pool *Pool, n int, body func(lo, hi int)) {
	tb.Helper()
	for start := time.Now(); !pool.saturated(); {
		if time.Since(start) > 10*heatCap {
			tb.Fatalf("pool not saturated after %v of back-to-back regions", 10*heatCap)
		}
		parallelFor(pool, n, 1, body)
	}
}

// BenchmarkForkJoin reports what one fork/join of a saturated pool costs
// over the ideal: a region of two 100 µs items on two workers should take
// 100 µs. It runs the regions back to back, and again with 100 µs of
// serial work between them — the shape of a training step, where the
// helper has to still be awake when the next kernel arrives.
func BenchmarkForkJoin(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("the ideal assumes the two items run side by side")
	}
	const item = 100 * time.Microsecond
	pool := poolOf(2)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			busyFor(item)
		}
	}
	for _, bc := range []struct {
		name string
		gap  time.Duration
	}{{"back_to_back", 0}, {"gap_100us", 100 * time.Microsecond}} {
		b.Run(bc.name, func(b *testing.B) {
			saturate(b, pool, 2, body) // spawn the helper and warm the pool outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				busyFor(bc.gap)
				parallelFor(pool, 2, 1, body)
			}
			perOp := float64(b.Elapsed()) / float64(b.N)
			b.ReportMetric((perOp-float64(item+bc.gap))/1e3, "overhead_us/op")
		})
	}
}

// TestJoinParksAndWakes drives the join's two orders against a handle the
// test holds itself. Retired late, the caller has run out its window and
// parked: the retirer must wake it, exactly once. Retired first, nobody is
// parked and no wake-up may be left behind in the recycled region.
func TestJoinParksAndWakes(t *testing.T) {
	r := &region{grain: 1, wake: make(chan struct{}, 1)} // n = 0: help never runs a body

	r.state.Store(1)
	go func() {
		time.Sleep(20 * joinWindow)
		r.help()
	}()
	start := time.Now()
	r.join(nil)
	if waited := time.Since(start); waited < 20*joinWindow {
		t.Errorf("join returned after %v, before the handle was retired", waited)
	}
	if s, tokens := r.state.Load(), len(r.wake); s != 0 || tokens != 0 {
		t.Errorf("after a parked join: state %#x, %d wake-ups pending, want 0 and 0", s, tokens)
	}

	r.state.Store(1)
	r.help()
	r.join(nil)
	if s, tokens := r.state.Load(), len(r.wake); s != 0 || tokens != 0 {
		t.Errorf("after an unparked join: state %#x, %d wake-ups pending, want 0 and 0", s, tokens)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestPoolParksWhenIdle: staying hot between kernels must not turn into
// spinning between steps. Once the hot window has run out every worker is
// parked in the blocking receive and an idle process burns nothing — a
// worker still polling would burn the whole stretch.
func TestPoolParksWhenIdle(t *testing.T) {
	pool := poolOf(2)
	body := func(lo, hi int) { busyFor(20 * time.Microsecond) }
	saturate(t, pool, 2, body)
	time.Sleep(20 * hotWindow)
	const idle = 50 * time.Millisecond
	before := cpuTime(t)
	time.Sleep(idle)
	if burned := cpuTime(t) - before; burned > idle/5 {
		t.Errorf("idle process burned %v of CPU over %v: a worker is still polling", burned, idle)
	}
}

// TestPoolColdWhenSparse: bursts of kernels that keep the pool busy for a
// small share of the time — a server answering occasional requests — never
// make a worker poll. Every region is taken from the blocking receive, so
// what such a process does cannot depend on whether its helper's core is
// really there.
func TestPoolColdWhenSparse(t *testing.T) {
	pool := NewPool(2) // fresh, so cold
	body := func(lo, hi int) { busyFor(20 * time.Microsecond) }
	hot := counterDelta(poolHotPickups, func() {
		for burst := 0; burst < 30; burst++ {
			for i := 0; i < 40; i++ {
				parallelFor(pool, 2, 1, body)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	if hot != 0 {
		t.Errorf("30 sparse bursts: %d hot pickups, want 0", hot)
	}
}
