package kernels

import (
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// poisonedC returns an m×n output buffer full of what a reused activation
// slot may hold: NaN, infinities and large garbage.
func poisonedC(r *tensor.RNG, size int) []float32 {
	c := make([]float32, size)
	for i := range c {
		switch i % 4 {
		case 0:
			c[i] = float32(math.NaN())
		case 1:
			c[i] = float32(math.Inf(1 - 2*(i%8/4)))
		default:
			c[i] = 1e30 * (r.Float32() - 0.5)
		}
	}
	return c
}

func firstDiff(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestBetaZeroIgnoresPriorC pins the beta = 0 contract of every GEMM entry
// point: C's prior contents are never read. The engine routes no longer
// clear C in a serial pre-pass; each tile clears its own region on its
// stripe's first depth block (gemmState.tile). So a product into a C full
// of NaN and garbage must be bitwise the product into a zeroed C, on
// shapes that cross the depth block (k > gemmKC), the column block
// (n > gemmNC) and the stripe (m > gemmStripe), all with edge tiles in
// both directions (m and n not multiples of any micro-tile), on every
// route and kernel-table entry.
func TestBetaZeroIgnoresPriorC(t *testing.T) {
	shapes := [][3]int{
		{37, 45, gemmKC + 44},
		{25, gemmNC + 52, 40},
		{gemmStripe + 10, 20, 9},
		{13, 33, 2*gemmKC + 1},
	}
	routes := []GEMMPath{GEMMPathAuto, GEMMPathNaive, GEMMPathBlocked, GEMMPathFused}
	forEachKernel(t, "", func(t *testing.T) {
		r := tensor.NewRNG(37)
		for _, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2]
			a := randSlice(r, m*k)
			b := randSlice(r, k*n)
			check := func(name string, run func(c []float32)) {
				t.Helper()
				want := make([]float32, m*n)
				run(want)
				got := poisonedC(r, m*n)
				run(got)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%s %dx%dx%d: C[%d] = %v into a poisoned C, %v into a zeroed one",
						name, m, n, k, i, got[i], want[i])
				}
			}
			for _, p := range routes {
				for _, ta := range []bool{false, true} {
					for _, tb := range []bool{false, true} {
						check(p.String()+" GEMM", func(c []float32) {
							p.GEMM(nil, ta, tb, m, n, k, 0.75, a, b, 0, c)
						})
					}
					for _, pb := range []*PackedB{PackWeight(ta, n, k, b), describeWeight(ta, n, k, b)} {
						check(p.String()+" GEMMPacked", func(c []float32) {
							p.GEMMPacked(nil, ta, m, n, k, 0.75, a, pb, 0, c)
						})
					}
				}
				pb := PackWeight(true, n, k, b)
				for _, kind := range epilogueKinds {
					ep := makeEpilogue(r, kind, m, n, true)
					check(p.String()+" GEMMPackedEpilogue "+kind.String(), func(c []float32) {
						p.GEMMPackedEpilogue(nil, false, m, n, k, 1, a, pb, cloneEpilogue(ep, m, n), c)
					})
				}
			}
		}
		// BatchedGEMM hands beta to the same routing, one matrix per item,
		// and never touches the gap between strided matrices.
		const batch, m, n, k = 3, 29, 35, gemmKC + 3
		a := randSlice(r, batch*m*k)
		b := randSlice(r, batch*k*n)
		for _, p := range routes {
			want := make([]float32, batch*(m*n+5))
			p.BatchedGEMM(nil, batch, false, true, m, n, k, 1, a, m*k, b, k*n, 0, want, m*n+5)
			got := poisonedC(r, len(want))
			for i := 0; i < batch; i++ {
				copy(want[i*(m*n+5)+m*n:(i+1)*(m*n+5)], got[i*(m*n+5)+m*n:])
			}
			p.BatchedGEMM(nil, batch, false, true, m, n, k, 1, a, m*k, b, k*n, 0, got, m*n+5)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s BatchedGEMM: C[%d] = %v into a poisoned C, %v into a zeroed one", p, i, got[i], want[i])
			}
		}
	})
}
