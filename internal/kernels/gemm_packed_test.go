package kernels

import (
	"math"
	"sync"
	"testing"

	"demystbert/internal/tensor"
)

// packedFull runs GEMMPacked with a fresh pack of b, for oracle comparisons.
func packedFull(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	GEMMPacked(transA, m, n, k, alpha, a, PackWeight(transB, n, k, b), beta, c)
}

// edgeDims returns the issue's edge shapes for the active backend:
// 1, mr±1, nr±1, KC±1 (positive, deduplicated, sorted small→large).
func edgeDims() []int {
	cand := []int{1, gemmMR - 1, gemmMR + 1, gemmNR - 1, gemmNR + 1, gemmKC - 1, gemmKC + 1}
	seen := map[int]bool{}
	var out []int
	for _, d := range cand {
		if d > 0 && !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// TestGEMMPackedEquivalence drives GEMMPacked against the float64
// reference over all four transpose combinations and the edge dims
// (m,n,k ∈ {1, mr±1, nr±1, KC±1}) on both micro-kernel backends. The KC±1
// dims ride in k only, where they cross the depth-block boundary; m and n
// use the micro-tile edges plus one multi-block size.
func TestGEMMPackedEquivalence(t *testing.T) {
	run := func(t *testing.T) {
		r := tensor.NewRNG(21)
		mnDims := []int{1, gemmMR - 1, gemmMR + 1, gemmNR - 1, gemmNR + 1, 2*gemmMC + 1}
		kDims := []int{1, gemmMR + 1, gemmNR + 1, gemmKC - 1, gemmKC + 1}
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, m := range mnDims {
					for _, n := range mnDims {
						for _, k := range kDims {
							if m < 1 || n < 1 {
								continue
							}
							a := randSlice(r, m*k)
							b := randSlice(r, k*n)
							got := randSlice(r, m*n)
							want := append([]float32(nil), got...)
							packedFull(ta, tb, m, n, k, 1.5, a, b, 0.5, got)
							refGEMM(ta, tb, m, n, k, 1.5, a, b, 0.5, want)
							if d := maxAbsDiff(got, want); d > tolFor(k) {
								t.Fatalf("GEMMPacked(tA=%v tB=%v %dx%dx%d) max diff %v", ta, tb, m, n, k, d)
							}
						}
					}
				}
			}
		}
	}
	forEachKernel(t, "", run)
}

// TestGEMMPackedBitwiseMatchesGEMM: skipping packB must not change a single
// bit — the pre-packed panels are byte-identical to the on-the-fly ones and
// the micro-kernel schedule per C element is unchanged.
func TestGEMMPackedBitwiseMatchesGEMM(t *testing.T) {
	r := tensor.NewRNG(22)
	for _, tb := range []bool{false, true} {
		m, n, k := 64, 100, gemmKC+44 // edge tiles both ways, two depth blocks
		a := randSlice(r, m*k)
		b := randSlice(r, k*n)
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		GEMM(false, tb, m, n, k, 1, a, b, 0, want)
		packedFull(false, tb, m, n, k, 1, a, b, 0, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tB=%v: GEMMPacked differs from GEMM at %d: %v vs %v", tb, i, got[i], want[i])
			}
		}
	}
}

// TestGEMMPackedSmallFallback covers the sub-smallGEMMFlops dispatch, which
// computes from the pack's retained source operand.
func TestGEMMPackedSmallFallback(t *testing.T) {
	r := tensor.NewRNG(23)
	m, n, k := 4, 5, 6
	a := randSlice(r, m*k)
	b := randSlice(r, k*n)
	got := make([]float32, m*n)
	want := make([]float32, m*n)
	packedFull(false, true, m, n, k, 2, a, b, 0, got)
	refGEMM(false, true, m, n, k, 2, a, b, 0, want)
	if d := maxAbsDiff(got, want); d > tolFor(k) {
		t.Fatalf("small GEMMPacked max diff %v", d)
	}
}

func TestGEMMPackedArgChecks(t *testing.T) {
	pb := PackWeight(false, 8, 8, make([]float32, 64))
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil pack", func() {
		GEMMPacked(false, 4, 8, 8, 1, make([]float32, 32), nil, 0, make([]float32, 32))
	})
	mustPanic("shape mismatch", func() {
		GEMMPacked(false, 4, 8, 9, 1, make([]float32, 36), pb, 0, make([]float32, 32))
	})
	mustPanic("short A", func() {
		GEMMPacked(false, 4, 8, 8, 1, make([]float32, 31), pb, 0, make([]float32, 32))
	})
	mustPanic("short C", func() {
		GEMMPacked(false, 4, 8, 8, 1, make([]float32, 32), pb, 0, make([]float32, 31))
	})
}

// TestGEMMPackedBackendMismatchPanics: a pack built for one backend's
// panel width is rejected under every other backend instead of misreading
// panels (scalar under SIMD, and AVX2 under AVX-512 and back).
func TestGEMMPackedBackendMismatchPanics(t *testing.T) {
	forEachKernel(t, "", func(t *testing.T) {
		pb := PackWeight(false, 64, 64, make([]float32, 64*64))
		for i := range kernelTable {
			other := &kernelTable[i]
			if other.nr == pb.nr || !other.supported {
				continue
			}
			withKernel(other, func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("pack built for nr=%d did not panic under the %s kernel", pb.nr, other.name)
					}
				}()
				GEMMPacked(false, 32, 64, 64, 1, make([]float32, 32*64), pb, 0, make([]float32, 32*64))
			})
		}
	})
}

// TestPackCacheInvalidation: a generation's first use builds nothing, its
// second builds the pack and later ones return it; a stale generation keeps
// returning the cached (old) pack; bumping the generation drops it, and the
// rebuild on the new generation's second use reads the live buffer,
// matching a fresh PackWeight bitwise.
func TestPackCacheInvalidation(t *testing.T) {
	r := tensor.NewRNG(24)
	n, k := 48, 32
	b := randSlice(r, n*k)
	var cache PackCache
	if first := cache.Get(GEMMPathAuto, true, n, k, b, 0); first.buf != nil {
		t.Fatal("a generation's first use must not build panels")
	}
	pb0 := cache.Get(GEMMPathAuto, true, n, k, b, 0)
	if pb0.buf == nil {
		t.Fatal("a generation's second use must build the pack")
	}
	if cache.Get(GEMMPathAuto, true, n, k, b, 0) != pb0 {
		t.Fatal("unchanged generation must return the cached pack")
	}
	for i := range b {
		b[i] += 1
	}
	if cache.Get(GEMMPathAuto, true, n, k, b, 0) != pb0 {
		t.Fatal("mutation without a generation bump must (by contract) keep serving the old pack")
	}
	if first := cache.Get(GEMMPathAuto, true, n, k, b, 1); first == pb0 || first.buf != nil {
		t.Fatal("generation bump must drop the pack, and the new generation's first use must not build one")
	}
	pb1 := cache.Get(GEMMPathAuto, true, n, k, b, 1)
	if pb1 == pb0 || pb1.buf == nil {
		t.Fatal("the new generation's second use must rebuild the pack")
	}
	fresh := PackWeight(true, n, k, b)
	for i := range fresh.buf {
		if pb1.buf[i] != fresh.buf[i] {
			t.Fatalf("rebuilt pack differs from fresh pack at %d", i)
		}
	}
	// Orientation slots are independent.
	if cache.Get(GEMMPathAuto, false, k, n, b, 1).buf != nil || cache.Get(GEMMPathAuto, true, n, k, b, 1) != pb1 {
		t.Fatal("transpose orientations must cache separately")
	}
}

// TestPackCacheConcurrentReaders hammers one cache from several goroutines
// under -race: concurrent Get hits, misses (via generation bumps), and
// GEMMPacked consumers of whatever pack they observe.
func TestPackCacheConcurrentReaders(t *testing.T) {
	r := tensor.NewRNG(25)
	m, n, k := 24, 40, 32
	bBuf := randSlice(r, k*n)
	a := randSlice(r, m*k)
	var cache PackCache
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			c := make([]float32, m*n)
			for i := 0; i < 50; i++ {
				// Readers advance generations at different paces, so hits
				// and concurrent rebuilds both occur; the buffer itself is
				// never written, per the reader contract.
				gen := uint64(i / (2 + seed))
				pb := cache.Get(GEMMPathAuto, false, n, k, bBuf, gen)
				GEMMPacked(false, m, n, k, 1, a, pb, 0, c)
			}
		}(g)
	}
	wg.Wait()
	want := make([]float32, m*n)
	refGEMM(false, false, m, n, k, 1, a, bBuf, 0, want)
	got := make([]float32, m*n)
	GEMMPacked(false, m, n, k, 1, a, cache.Get(GEMMPathAuto, false, n, k, bBuf, 99), 0, got)
	if d := maxAbsDiff(got, want); d > tolFor(k) {
		t.Fatalf("post-race pack wrong: max diff %v", d)
	}
}

// TestBatchedGEMMBlockedEquivalence drives BatchedGEMM with every matrix
// forced through the blocked engine against the float64 reference: all
// four transpose combinations, edge dims the size rule would hand to the
// naive loops, strided (non-contiguous) layouts, and a beta accumulate, on
// every backend.
func TestBatchedGEMMBlockedEquivalence(t *testing.T) {
	run := func(t *testing.T) {
		r := tensor.NewRNG(26)
		dims := []int{1, gemmMR + 1, gemmNR - 1, 2*gemmNR + 3}
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, d := range dims {
					batch, m, n, k := 5, d, dims[(d+1)%len(dims)], dims[(d+2)%len(dims)]
					sA, sB, sC := m*k+3, k*n+1, m*n+7 // slack between matrices
					a := randSlice(r, (batch-1)*sA+m*k)
					b := randSlice(r, (batch-1)*sB+k*n)
					got := randSlice(r, (batch-1)*sC+m*n)
					want := append([]float32(nil), got...)
					GEMMPathBlocked.BatchedGEMM(batch, ta, tb, m, n, k, 1.25, a, sA, b, sB, 0.5, got, sC)
					for i := 0; i < batch; i++ {
						refGEMM(ta, tb, m, n, k, 1.25, a[i*sA:], b[i*sB:], 0.5, want[i*sC:i*sC+m*n])
					}
					if d := maxAbsDiff(got, want); d > tolFor(k) {
						t.Fatalf("BatchedGEMM(tA=%v tB=%v batch=%d %dx%dx%d) max diff %v", ta, tb, batch, m, n, k, d)
					}
				}
			}
		}
	}
	forEachKernel(t, "", run)
}

// TestBatchedGEMMMatchesLoopOfGEMM pins the batched contract: BatchedGEMM
// is bitwise a serial loop of GEMM calls over the strided operands — at any
// worker count, for all four transpose combinations, with the slack between
// matrices untouched, on shapes both sides of smallGEMMFlops (so both the
// naive and the blocked per-matrix route are compared) and at BERT's
// attention shapes.
func TestBatchedGEMMMatchesLoopOfGEMM(t *testing.T) {
	shapes := []struct{ batch, m, n, k int }{
		{5, 7, 5, 9},              // far below smallGEMMFlops: naive loops
		{6, 16, 16, 63},           // 2mnk = 32256, just below the threshold
		{6, 16, 16, 64},           // 2mnk = 32768, exactly at it: blocked engine
		{3, 37, 29, 41},           // above, edge tiles in both directions
		{4, 128, 128, 64},         // attention score at n=128, d/h=64
		{4, 128, 64, 128},         // attention context
		{2, 24, 40, 2*gemmKC + 5}, // several depth blocks
	}
	r := tensor.NewRNG(27)
	defer SetMaxWorkers(SetMaxWorkers(1))
	for _, sh := range shapes {
		batch, m, n, k := sh.batch, sh.m, sh.n, sh.k
		sA, sB, sC := m*k+3, k*n+1, m*n+7
		a := randSlice(r, (batch-1)*sA+m*k)
		b := randSlice(r, (batch-1)*sB+k*n)
		c0 := randSlice(r, (batch-1)*sC+m*n)
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				SetMaxWorkers(1)
				want := append([]float32(nil), c0...)
				for i := 0; i < batch; i++ {
					GEMM(ta, tb, m, n, k, 0.75, a[i*sA:i*sA+m*k], b[i*sB:i*sB+k*n], 0.5, want[i*sC:i*sC+m*n])
				}
				for _, w := range []int{1, 2, 4} {
					SetMaxWorkers(w)
					got := append([]float32(nil), c0...)
					BatchedGEMM(batch, ta, tb, m, n, k, 0.75, a, sA, b, sB, 0.5, got, sC)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("batch=%d %dx%dx%d tA=%v tB=%v workers=%d: c[%d] = %v, loop of GEMM gives %v",
								batch, m, n, k, ta, tb, w, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestBatchedGEMMDeterministic: every matrix is one work item with a fixed
// loop order, so repeated runs are bitwise identical even with parallel
// workers.
func TestBatchedGEMMDeterministic(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4))
	r := tensor.NewRNG(28)
	batch, m, n, k := 16, 33, 29, 65
	a := randSlice(r, batch*m*k)
	b := randSlice(r, batch*k*n)
	first := make([]float32, batch*m*n)
	BatchedGEMM(batch, false, true, m, n, k, 1, a, m*k, b, k*n, 0, first, m*n)
	for run := 0; run < 3; run++ {
		c := make([]float32, batch*m*n)
		BatchedGEMM(batch, false, true, m, n, k, 1, a, m*k, b, k*n, 0, c, m*n)
		for i := range c {
			if c[i] != first[i] {
				t.Fatalf("run %d differs at %d", run, i)
			}
		}
	}
}

// TestBatchedGEMMShortBufferPanics covers the up-front whole-batch bounds
// check: a buffer that holds the first matrix but not the last must panic
// before any compute instead of corrupting a later batch entry.
func TestBatchedGEMMShortBufferPanics(t *testing.T) {
	batch, m, n, k := 3, 4, 4, 4
	stride := 20 // 16 + slack
	okA := make([]float32, (batch-1)*stride+m*k)
	okB := make([]float32, (batch-1)*stride+k*n)
	okC := make([]float32, (batch-1)*stride+m*n)
	cases := []struct {
		name    string
		a, b, c []float32
	}{
		{"short A", okA[:len(okA)-1], okB, okC},
		{"short B", okA, okB[:len(okB)-1], okC},
		{"short C", okA, okB, okC[:len(okC)-1]},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			BatchedGEMM(batch, false, false, m, n, k, 1, tc.a, stride, tc.b, stride, 0, tc.c, stride)
		}()
	}
	// The exact fit must not panic.
	BatchedGEMM(batch, false, false, m, n, k, 1, okA, stride, okB, stride, 0, okC, stride)
}

// TestBatchedGEMMQuickReturns covers alpha=0/k=0 (beta-scale only) and
// empty dims through the batched entry point.
func TestBatchedGEMMQuickReturns(t *testing.T) {
	c := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	BatchedGEMM(2, false, false, 2, 2, 0, 1, nil, 0, nil, 0, 2, c, 4)
	for i, v := range c {
		if v != float32(2*(i+1)) {
			t.Fatalf("k=0 beta=2: c[%d] = %v", i, v)
		}
	}
	BatchedGEMM(2, false, false, 0, 2, 2, 1, nil, 0, make([]float32, 8), 4, 0, nil, 0)
}
