package kernels

import (
	"fmt"
	"runtime"
	"testing"

	"demystbert/internal/tensor"
)

// TestShortStripeBitwiseMatchesBlocked: auto's short-stripe route (B read
// in place, or packed one micro-panel at a time by the column segment that
// uses it) must give GEMMPathBlocked's bits — the per-call schedule it
// replaces — on every kernel-table entry at widths 1–3. The matrix covers
// every transpose pair at β ∈ {0, 1}; n a multiple of nr and not (the
// in-place edge panel is packed, and B sits on an exact-length slice, so
// the scalar kernel panics on any read past the operand and the assembly
// ones are pinned by guardedTail's protected page); m below mr, at the
// route's last row (2·gemmMC) and one past it (the old route); k inside one
// depth block and across it; and every epilogue kind on a first-use
// (un-built) weight.
func TestShortStripeBitwiseMatchesBlocked(t *testing.T) {
	// 256 is a multiple of every entry's nr, 259 of none; at m = 1 both
	// still clear the size rule.
	ns := []int{256, 259}
	ks := []int{100, gemmKC + 9}
	if testing.Short() || raceEnabled {
		ks = []int{gemmKC + 9}
	}
	forEachKernel(t, "", func(t *testing.T) {
		ms := []int{1, gemmMR - 1, 13, shortStripeRows, shortStripeRows + 1}
		if testing.Short() || raceEnabled {
			ms = []int{1, 13, shortStripeRows + 1}
		}
		r := tensor.NewRNG(71)
		for w := 1; w <= 3; w++ {
			pool := poolOf(w)
			for _, m := range ms {
				for _, n := range ns {
					for _, k := range ks {
						a := randSlice(r, m*k)
						b := guardedTail(t, randSlice(r, k*n))
						c0 := randSlice(r, m*n)
						check := func(name string, run func(p GEMMPath, c []float32)) {
							t.Helper()
							want := append([]float32(nil), c0...)
							run(GEMMPathBlocked, want)
							got := append([]float32(nil), c0...)
							before := gemmShortStripes.Value()
							run(GEMMPathAuto, got)
							if took := gemmShortStripes.Value() > before; took != (m <= shortStripeRows) {
								t.Fatalf("w=%d %s %dx%dx%d: short-stripe route taken %v", w, name, m, n, k, took)
							}
							if i := firstDiff(got, want); i >= 0 {
								t.Fatalf("w=%d %s %dx%dx%d: auto C[%d] = %v, blocked %v", w, name, m, n, k, i, got[i], want[i])
							}
						}
						for _, ta := range []bool{false, true} {
							for _, tb := range []bool{false, true} {
								for _, beta := range []float32{0, 1} {
									check(fmt.Sprintf("GEMM tA=%v tB=%v beta=%v", ta, tb, beta), func(p GEMMPath, c []float32) {
										p.GEMM(pool, ta, tb, m, n, k, 0.75, a, b, beta, c)
									})
								}
							}
						}
						for _, kind := range epilogueKinds {
							ep := makeEpilogue(r, kind, m, n, true)
							saved := map[GEMMPath]*Epilogue{}
							check("epilogue "+kind.String(), func(p GEMMPath, c []float32) {
								saved[p] = cloneEpilogue(ep, m, n)
								p.GEMMPackedEpilogue(pool, false, m, n, k, 1, a, describeWeight(true, n, k, b), saved[p], c)
							})
							got, want := saved[GEMMPathAuto], saved[GEMMPathBlocked]
							for name, pair := range map[string][2][]float32{
								"X": {got.X, want.X}, "mean": {got.Mean, want.Mean}, "invstd": {got.InvStd, want.InvStd},
							} {
								if i := firstDiff(pair[0], pair[1]); i >= 0 {
									t.Fatalf("w=%d %s %dx%dx%d: saved %s[%d] = %v on auto, %v on blocked", w, kind, m, n, k, name, i, pair[0][i], pair[1][i])
								}
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkGEMMShortStripe times the products of a train_update step that
// take the short-stripe route — 128 tokens through d = 256, d_ff = 1024
// (the projection and FC forwards are NT, their input gradients NN) and
// the tied MLM decoder over 19 masked rows and an 8192-word vocabulary
// (forward NT, input gradient NN with K = 8192) — on auto (the route) and
// on blocked (the per-call schedule it replaced), at the width -cpu sets.
func BenchmarkGEMMShortStripe(b *testing.B) {
	pool := poolOf(runtime.GOMAXPROCS(0))
	shapes := []struct {
		name    string
		transB  bool
		m, n, k int
	}{
		{"proj_fwd", true, 128, 256, 256},
		{"proj_dgrad", false, 128, 256, 256},
		{"fc1_fwd", true, 128, 1024, 256},
		{"fc1_dgrad", false, 128, 256, 1024},
		{"fc2_fwd", true, 128, 256, 1024},
		{"fc2_dgrad", false, 128, 1024, 256},
		{"decoder_fwd", true, 19, 8192, 256},
		{"decoder_dgrad", false, 19, 256, 8192},
	}
	r := tensor.NewRNG(72)
	for _, s := range shapes {
		a, w, c := randSlice(r, s.m*s.k), randSlice(r, s.k*s.n), make([]float32, s.m*s.n)
		for _, p := range []GEMMPath{GEMMPathAuto, GEMMPathBlocked} {
			b.Run(s.name+"/"+p.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.GEMM(pool, false, s.transB, s.m, s.n, s.k, 1, a, w, 0, c)
				}
				b.ReportMetric(float64(GEMMFLOPs(s.m, s.n, s.k))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
