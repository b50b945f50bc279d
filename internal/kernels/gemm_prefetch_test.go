package kernels

import (
	"fmt"
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// prefetchDepths are the depths the prefetch guard runs: one step, around
// the 16-step prefetch distance of a full tile and the 64-step one of an
// avx512 row-edge tile, and a whole depth block.
var prefetchDepths = []int{1, 15, 16, 17, 63, 64, 65, gemmKC}

// TestPrefetchPastBNeverFaults: the micro-kernels prefetch B 16 depth
// steps ahead of the row they read, so near the end of B they name
// addresses past the operand. PREFETCHT0 never faults; this pins it, with
// B's last element just before a PROT_NONE page (guardedTail), for every
// entry's micro-kernel (and its row-edge body at every row count below
// mr) on a packed panel and on an in-place operand (the
// panel is the last nr columns of a 259-wide B), for GEMMPacked on a
// pre-packed weight, and for a short stripe reading an NN B in place, each
// at the depths in prefetchDepths. Each result must equal the same call on
// an unguarded copy bit for bit.
func TestPrefetchPastBNeverFaults(t *testing.T) {
	forEachKernel(t, "", func(t *testing.T) {
		r := tensor.NewRNG(79)
		k := activeKernel
		same := func(name string, got, want []float32) {
			t.Helper()
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s: [%d] = %v guarded, %v unguarded", name, i, got[i], want[i])
				}
			}
		}
		for _, kc := range prefetchDepths {
			a := randSlice(r, k.mr*kc)
			for _, ldb := range []int{k.nr, 259} {
				b := randSlice(r, kc*ldb)
				g := guardedTail(t, b)
				want := randSlice(r, k.mr*k.nr)
				got := append([]float32(nil), want...)
				k.f32(kc, a, b[ldb-k.nr:], ldb, want, k.nr)
				k.f32(kc, a, g[ldb-k.nr:], ldb, got, k.nr)
				same(fmt.Sprintf("micro-kernel kc=%d ldb=%d", kc, ldb), got, want)
				for mw := 1; k.f32Rows != nil && mw < k.mr; mw++ {
					k.f32Rows(kc, a, b[ldb-k.nr:], ldb, want, k.nr, mw)
					k.f32Rows(kc, a, g[ldb-k.nr:], ldb, got, k.nr, mw)
					same(fmt.Sprintf("row-edge body rows=%d kc=%d ldb=%d", mw, kc, ldb), got, want)
				}
			}

			const n = 256
			for _, m := range []int{1, 13} {
				a, w := randSlice(r, m*kc), randSlice(r, n*kc)
				pb := PackWeight(true, n, kc, w)
				want, got := make([]float32, m*n), make([]float32, m*n)
				GEMMPathFused.GEMMPacked(poolOf(2), false, m, n, kc, 1, a, pb, 0, want)
				pb.buf = guardedTail(t, pb.buf)
				GEMMPathFused.GEMMPacked(poolOf(2), false, m, n, kc, 1, a, pb, 0, got)
				same(fmt.Sprintf("GEMMPacked %dx%dx%d", m, n, kc), got, want)
			}

			const m, nIn = shortStripeRows, 259
			a, b := randSlice(r, m*kc), randSlice(r, kc*nIn)
			want, got := make([]float32, m*nIn), make([]float32, m*nIn)
			GEMMPathBlocked.GEMM(poolOf(2), false, false, m, nIn, kc, 1, a, b, 0, want)
			before := gemmShortStripes.Value()
			GEMMPathAuto.GEMM(poolOf(2), false, false, m, nIn, kc, 1, a, guardedTail(t, b), 0, got)
			if gemmShortStripes.Value() == before {
				t.Fatalf("short stripe %dx%dx%d: route not taken", m, nIn, kc)
			}
			same(fmt.Sprintf("short stripe %dx%dx%d", m, nIn, kc), got, want)
		}
	})
}

// BenchmarkGEMMStreamedWeights times auto GEMMPacked calls at the shapes
// one served query runs (a mid4 forward of 1–16 tokens: QKV and the
// output projection k 256 n 256, FC1 n 1024, the tied decoder n 8192, and
// FC2 k 1024 n 256; the row counts are one and two register tiles and
// either side of them) with B cold: each iteration takes the next of enough
// pre-packed copies of the weight to exceed a 4 MiB L2, so every call
// streams its panels from L3 or memory as a served request does between
// arrivals.
func BenchmarkGEMMStreamedWeights(b *testing.B) {
	type shape struct {
		name string
		n, k int
	}
	shapes := []shape{{"qkv", 256, 256}, {"fc1", 1024, 256}, {"decoder", 8192, 256}, {"fc2", 256, 1024}}
	r := tensor.NewRNG(73)
	for _, s := range shapes {
		w := randSlice(r, s.n*s.k)
		copies := max(2, (16<<20)/(4*s.n*s.k))
		pbs := make([]*PackedB, copies)
		for i := range pbs {
			pbs[i] = PackWeight(true, s.n, s.k, w)
		}
		for _, m := range []int{1, 4, 10, 12, 13, 16} {
			a, c := randSlice(r, m*s.k), make([]float32, m*s.n)
			b.Run(fmt.Sprintf("%s/m=%d", s.name, m), func(b *testing.B) {
				b.SetBytes(4 * int64(s.n*s.k)) // the weight each call streams
				for i := 0; i < b.N; i++ {
					GEMMPacked(false, m, s.n, s.k, 1, a, pbs[i%copies], 0, c)
				}
			})
		}
	}
}
