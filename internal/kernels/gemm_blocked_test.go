package kernels

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"demystbert/internal/tensor"
)

// blockedFull applies full GEMM semantics (beta scaling, quick returns)
// around a forced gemmBlocked call, bypassing the small-size dispatch to
// the naive path so tests exercise the blocked code on any shape.
func blockedFull(pool *Pool, transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	checkGEMMArgs(transA, transB, m, n, k, a, b, c)
	if m == 0 || n == 0 {
		return
	}
	scaleC(c, m, n, n, beta)
	if k == 0 || alpha == 0 {
		return
	}
	gemmBlocked(pool, transA, transB, m, n, k, alpha, a, ldOf(transA, m, k), b, ldOf(transB, k, n), nil, 1, nil, c, n)
}

// withKernel runs f under micro-kernel backend k, then restores the
// installed one.
func withKernel(k *gemmKernel, f func()) {
	prev := activeKernel
	installKernel(k)
	defer installKernel(prev)
	f()
}

// forEachKernel runs f as one subtest per kernel-table entry (named after
// the entry, plus suffix), under that entry; entries the host cannot
// execute skip with the reason logged, so an AVX-512 host still exercises
// the AVX2 and scalar paths.
func forEachKernel(t *testing.T, suffix string, f func(t *testing.T)) {
	for i := range kernelTable {
		k := &kernelTable[i]
		t.Run(k.name+suffix, func(t *testing.T) {
			if !k.supported {
				t.Skipf("host CPU/OS does not support the %s kernel", k.name)
			}
			withKernel(k, func() { f(t) })
		})
	}
}

// tolFor scales the comparison tolerance with the accumulation depth: the
// blocked kernel sums k products in float32 with a different association
// than the float64 reference.
func tolFor(k int) float64 { return 1e-5 * float64(k+16) }

// TestGEMMBlockedEquivalence is the blocked-vs-naive oracle suite required
// by the refactor: all four transpose combinations, odd/prime and
// block-boundary-crossing dims, alpha/beta grid, on both micro-kernel
// backends and both the parallel and serial drivers.
func TestGEMMBlockedEquivalence(t *testing.T) {
	dims := []int{1, 3, 17, 63, 129, 257}
	alphas := []float32{0, 1, -0.5}
	betas := []float32{0, 1, -0.5}
	r := tensor.NewRNG(11)
	run := func(t *testing.T, pool *Pool) {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for i, m := range dims {
					n := dims[(i+1)%len(dims)]
					k := dims[(i+2)%len(dims)]
					a := randSlice(r, m*k)
					b := randSlice(r, k*n)
					cInit := randSlice(r, m*n)
					for _, alpha := range alphas {
						for _, beta := range betas {
							got := append([]float32(nil), cInit...)
							want := append([]float32(nil), cInit...)
							blockedFull(pool, ta, tb, m, n, k, alpha, a, b, beta, got)
							GEMMPathNaive.GEMM(nil, ta, tb, m, n, k, alpha, a, b, beta, want)
							if d := maxAbsDiff(got, want); d > tolFor(k) {
								t.Fatalf("tA=%v tB=%v %dx%dx%d alpha=%v beta=%v: max diff %v",
									ta, tb, m, n, k, alpha, beta, d)
							}
						}
					}
				}
			}
		}
	}
	forEachKernel(t, "-parallel", func(t *testing.T) { run(t, nil) })
	forEachKernel(t, "-serial", func(t *testing.T) { run(t, serial) })
}

// TestGEMMBlockedEquivalenceWorkers exercises the dynamic tile scheduler
// at several pool widths on a shape spanning many blocks.
func TestGEMMBlockedEquivalenceWorkers(t *testing.T) {
	r := tensor.NewRNG(12)
	m, n, k := 250, 310, 290 // crosses MC, NR, and KC boundaries unevenly
	a := randSlice(r, m*k)
	b := randSlice(r, k*n)
	want := make([]float32, m*n)
	GEMMPathNaive.GEMM(nil, false, false, m, n, k, 1, a, b, 0, want)
	for _, w := range []int{1, 2, 3, 4, 8} {
		got := make([]float32, m*n)
		blockedFull(poolOf(w), false, false, m, n, k, 1, a, b, 0, got)
		if d := maxAbsDiff(got, want); d > tolFor(k) {
			t.Fatalf("workers=%d: max diff %v", w, d)
		}
	}
}

// TestGEMMBlockedDeterministic: repeated parallel runs must be bitwise
// identical — every C tile is owned by exactly one worker with a fixed
// loop order.
func TestGEMMBlockedDeterministic(t *testing.T) {
	r := tensor.NewRNG(13)
	m, n, k := 130, 257, 129
	a := randSlice(r, m*k)
	b := randSlice(r, k*n)
	pool := poolOf(4)
	first := make([]float32, m*n)
	blockedFull(pool, false, true, m, n, k, 1.25, a, b, 0, first)
	for run := 0; run < 5; run++ {
		got := make([]float32, m*n)
		blockedFull(pool, false, true, m, n, k, 1.25, a, b, 0, got)
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("run %d: non-deterministic result at %d: %v vs %v", run, i, got[i], first[i])
			}
		}
	}
}

// TestGEMMNaNPropagation pins the IEEE semantics the old fast path broke:
// a zero coefficient must not suppress a NaN/Inf contribution from the
// other operand, because 0·NaN = NaN and 0·Inf = NaN.
func TestGEMMNaNPropagation(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	isNaN := func(v float32) bool { return v != v }

	// Small shape → naive path. A's row has a zero exactly where B's
	// column carries the special value.
	t.Run("naive-small", func(t *testing.T) {
		for _, special := range []float32{nan, inf} {
			a := []float32{0, 1}             // 1×2
			b := []float32{special, 2, 3, 4} // 2×2
			c := make([]float32, 2)
			GEMM(false, false, 1, 2, 2, 1, a, b, 0, c)
			if !isNaN(c[0]) {
				t.Fatalf("0·%v dropped: c = %v", special, c)
			}
			if c[1] != 0*2+1*4 {
				t.Fatalf("finite column corrupted: c = %v", c)
			}
		}
	})

	// Large shape → blocked path; also run the explicit naive oracle and
	// the serial (batched) path on the same data.
	t.Run("all-paths-large", func(t *testing.T) {
		m, n, k := 64, 64, 8 // 2mnk = 65536 ≥ smallGEMMFlops
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = 1
		}
		for i := range b {
			b[i] = 1
		}
		a[0] = 0   // A[0][0] = 0
		b[0] = nan // B[0][0] = NaN: contributes 0·NaN to C[0][0]
		b[1] = inf // B[0][1] = Inf: contributes 0·Inf to C[0][1]
		paths := []struct {
			name string
			run  func(c []float32)
		}{
			{"GEMM", func(c []float32) { GEMM(false, false, m, n, k, 1, a, b, 0, c) }},
			{"GEMMPathNaive", func(c []float32) { GEMMPathNaive.GEMM(nil, false, false, m, n, k, 1, a, b, 0, c) }},
			{"serial", func(c []float32) { GEMMPathAuto.run(serial, false, false, m, n, k, 1, a, k, b, n, nil, 0, nil, c, n) }},
			{"blocked-scalar", func(c []float32) {
				withKernel(&scalarKernel, func() { blockedFull(nil, false, false, m, n, k, 1, a, b, 0, c) })
			}},
		}
		for _, p := range paths {
			c := make([]float32, m*n)
			p.run(c)
			checkNaN(t, p.name, c)
		}
	})

	// BLAS quick-return semantics stay: alpha == 0 skips the product, so
	// NaN in A/B does not reach C.
	t.Run("alpha-zero-quick-return", func(t *testing.T) {
		a := []float32{nan, nan}
		b := []float32{nan, nan, nan, nan}
		c := []float32{5, 7}
		GEMM(false, false, 1, 2, 2, 0, a, b, 2, c)
		if c[0] != 10 || c[1] != 14 {
			t.Fatalf("alpha=0 must only scale C: %v", c)
		}
	})
}

func checkNaN(t *testing.T, name string, c []float32) {
	t.Helper()
	if c[0] == c[0] {
		t.Fatalf("%s: 0·NaN dropped, c[0] = %v", name, c[0])
	}
	if c[1] == c[1] {
		t.Fatalf("%s: 0·Inf dropped, c[1] = %v", name, c[1])
	}
	// A finite entry away from the poisoned lanes must stay exact.
	if c[len(c)-1] != 8 {
		t.Fatalf("%s: finite lane corrupted: %v", name, c[len(c)-1])
	}
}

// allocsAfterCollection is testing.AllocsPerRun with a garbage collection
// before every run, counted around f only: what a warmed call allocates
// when, as in bench/'s measured steps, a collection has just run.
func allocsAfterCollection(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	return float64(mallocs) / float64(runs)
}

// allocCases are the two states a zero-allocation pin measures a warmed
// call in: back to back, and right after a collection, which must not
// cost it anything either — pooled objects live in free lists that a
// collection leaves alone.
var allocCases = []struct {
	name   string
	allocs func(runs int, f func()) float64
}{
	{"in steady state", testing.AllocsPerRun},
	{"after a collection", allocsAfterCollection},
}

// TestGEMMZeroAllocSteadyState: after warm-up, the blocked GEMM, the
// pre-packed GEMM (on built panels and on an un-built operand, the
// pack-cache first-use route), and the batched GEMM must not allocate —
// pack scratch, tile state, and pool regions are all recycled, and
// GEMMPacked's operand pack is built once outside the hot loop — whether
// or not a collection ran before the call.
func TestGEMMZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	r := tensor.NewRNG(14)
	pool := poolOf(1)
	forEachKernel(t, "", func(t *testing.T) { zeroAllocSteadyState(t, r, pool) })
}

func zeroAllocSteadyState(t *testing.T, r *tensor.RNG, pool *Pool) {
	m, n, k := 192, 192, 192
	a := randSlice(r, m*k)
	b := randSlice(r, k*n)
	c := make([]float32, m*n)
	w := randSlice(r, n*k)
	pb, unbuilt := packWeight(pool, true, n, k, w), describeWeight(true, n, k, w)
	const batch = 8
	ab := randSlice(r, batch*32*32)
	bb := randSlice(r, batch*32*32)
	cb := make([]float32, batch*32*32)
	GEMMPathAuto.GEMM(pool, false, false, m, n, k, 1, a, b, 0, c) // warm the scratch pools
	GEMMPathAuto.GEMMPacked(pool, false, m, n, k, 1, a, pb, 0, c)
	GEMMPathAuto.GEMMPacked(pool, false, m, n, k, 1, a, unbuilt, 0, c)
	GEMMPathAuto.BatchedGEMM(pool, batch, false, true, 32, 32, 32, 1, ab, 32*32, bb, 32*32, 0, cb, 32*32)
	for _, ac := range allocCases {
		if avg := ac.allocs(10, func() {
			GEMMPathAuto.GEMM(pool, false, false, m, n, k, 1, a, b, 0, c)
		}); avg != 0 {
			t.Errorf("GEMM allocates %v per op %s, want 0", avg, ac.name)
		}
		if avg := ac.allocs(10, func() {
			GEMMPathAuto.GEMMPacked(pool, false, m, n, k, 1, a, pb, 0, c)
		}); avg != 0 {
			t.Errorf("GEMMPacked allocates %v per op %s, want 0", avg, ac.name)
		}
		if avg := ac.allocs(10, func() {
			GEMMPathAuto.GEMMPacked(pool, false, m, n, k, 1, a, unbuilt, 0, c)
		}); avg != 0 {
			t.Errorf("GEMMPacked on an un-built operand allocates %v per op %s, want 0", avg, ac.name)
		}
		if avg := ac.allocs(10, func() {
			GEMMPathAuto.BatchedGEMM(pool, batch, false, true, 32, 32, 32, 1, ab, 32*32, bb, 32*32, 0, cb, 32*32)
		}); avg != 0 {
			t.Errorf("BatchedGEMM allocates %v per op %s, want 0", avg, ac.name)
		}
	}
}

// TestBatchedGEMMLargePerElement routes batch elements through the blocked
// serial path (paper-scale attention scores) and checks against the
// reference.
func TestBatchedGEMMLargePerElement(t *testing.T) {
	r := tensor.NewRNG(15)
	batch, m, n, k := 4, 128, 128, 64
	a := randSlice(r, batch*m*k)
	b := randSlice(r, batch*k*n)
	got := make([]float32, batch*m*n)
	want := make([]float32, batch*m*n)
	BatchedGEMM(batch, false, true, m, n, k, 1, a, m*k, b, k*n, 0, got, m*n)
	for i := 0; i < batch; i++ {
		refGEMM(false, true, m, n, k, 1, a[i*m*k:], b[i*k*n:], 0, want[i*m*n:(i+1)*m*n])
	}
	if d := maxAbsDiff(got, want); d > tolFor(k) {
		t.Fatalf("BatchedGEMM blocked-serial max diff %v", d)
	}
}

// TestGEMMBlockedAgainstFloat64Ref cross-checks the SIMD kernel against a
// float64 triple-loop on a shape whose panels exercise full and edge tiles
// in both directions.
func TestGEMMBlockedAgainstFloat64Ref(t *testing.T) {
	r := tensor.NewRNG(16)
	for _, tc := range []struct{ ta, tb bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		m, n, k := 123, 131, 137
		a := randSlice(r, m*k)
		b := randSlice(r, k*n)
		got := randSlice(r, m*n)
		want := append([]float32(nil), got...)
		blockedFull(nil, tc.ta, tc.tb, m, n, k, 1.5, a, b, -0.5, got)
		refGEMM(tc.ta, tc.tb, m, n, k, 1.5, a, b, -0.5, want)
		if d := maxAbsDiff(got, want); d > tolFor(k) {
			t.Fatalf("tA=%v tB=%v: max diff %v vs float64 ref", tc.ta, tc.tb, d)
		}
	}
}

// TestGEMMPaperShapeSmoke runs one BERT-shaped GEMM per transpose combo the
// training graph actually emits (fwd NT, dgrad NN, wgrad TN) at reduced
// scale.
func TestGEMMPaperShapeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape smoke is not short")
	}
	r := tensor.NewRNG(17)
	shapes := []struct {
		name    string
		ta, tb  bool
		m, n, k int
	}{
		{"fwd-NT", false, true, 128, 256, 256},
		{"dgrad-NN", false, false, 128, 256, 256},
		{"wgrad-TN", true, false, 256, 256, 128},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			a := randSlice(r, s.m*s.k)
			b := randSlice(r, s.k*s.n)
			got := make([]float32, s.m*s.n)
			want := make([]float32, s.m*s.n)
			GEMM(s.ta, s.tb, s.m, s.n, s.k, 1, a, b, 0, got)
			GEMMPathNaive.GEMM(nil, s.ta, s.tb, s.m, s.n, s.k, 1, a, b, 0, want)
			if d := maxAbsDiff(got, want); d > tolFor(s.k) {
				t.Fatalf("%s %s: max diff %v", s.name, fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k), d)
			}
		})
	}
}
