package kernels

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"demystbert/internal/tensor"
)

// Oracle tests for the column folds (BiasGrad, LayerNormBackward's dγ/dβ),
// the four-row passes (LayerNormBackward's dX, softmaxGradRows) and
// Add's, Mul's and Scale's vector bodies against copies of the loops they
// replaced, under every kernel-table entry, bit for bit.

// parentBiasGrad is the band sweep with the scalar row add.
func parentBiasGrad(dBias, dY []float32, m, n int) {
	for j0 := 0; j0 < n; j0 += 64 {
		w := min(64, n-j0)
		a := append([]float32(nil), dBias[j0:j0+w]...)
		for i := 0; i < m; i++ {
			for k, v := range dY[i*n+j0 : i*n+j0+w] {
				a[k] += v
			}
		}
		copy(dBias[j0:j0+w], a)
	}
}

// parentLayerNormBackward is the one-row-at-a-time dX loop and the
// one-column-at-a-time dγ/dβ loop.
func parentLayerNormBackward(dX, dGamma, dBeta, dY, x, gamma, mean, invStd []float32, rows, n int) {
	for r := 0; r < rows; r++ {
		xr, dyr, dxr := x[r*n:(r+1)*n], dY[r*n:(r+1)*n], dX[r*n:(r+1)*n]
		mu, istd := mean[r], invStd[r]
		var sumG, sumGX float32
		for i := range xr {
			xhat := (xr[i] - mu) * istd
			g := float32(dyr[i] * gamma[i])
			sumG += g
			sumGX += float32(g * xhat)
		}
		invN := 1 / float32(n)
		for i := range xr {
			xhat := (xr[i] - mu) * istd
			g := float32(dyr[i] * gamma[i])
			dxr[i] = istd * ((g - float32(invN*sumG)) - float32(float32(xhat*invN)*sumGX))
		}
	}
	for j := 0; j < n; j++ {
		dg, db := dGamma[j], dBeta[j]
		for r := 0; r < rows; r++ {
			xhat := (x[r*n+j] - mean[r]) * invStd[r]
			dy := dY[r*n+j]
			dg += float32(dy * xhat)
			db += dy
		}
		dGamma[j], dBeta[j] = dg, db
	}
}

// parentSoftmaxGrad is the one-row-at-a-time loop, the product rounded as
// on amd64.
func parentSoftmaxGrad(dX, dY, y []float32, rows, n int) {
	for r := 0; r < rows; r++ {
		yr, dyr, dxr := y[r*n:(r+1)*n], dY[r*n:(r+1)*n], dX[r*n:(r+1)*n]
		var dotv float32
		for i := range yr {
			dotv += float32(dyr[i] * yr[i])
		}
		for i := range yr {
			dxr[i] = yr[i] * (dyr[i] - dotv)
		}
	}
}

// sameFold compares got against the oracle bit for bit, except that any
// NaN matches any NaN: once a fold has met a NaN its running value and
// the next NaN meet in one add, and which payload that returns depends on
// the operand order each body picks.
func sameFold(got, want []float32) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// foldCols and foldRows are the oracle tests' matrix shapes: widths
// around the vector groups, the 64-column bands and BiasGrad's
// scratchMin-wide sweep, and row counts around the four-row passes.
var (
	foldCols = []int{1, 7, 8, 15, 16, 17, 63, 64, 65, 256, 768, scratchMin + 65}
	foldRows = []int{1, 3, 4, 5, 128}
)

// forEachFoldCase runs f for every entry, width, shape and special-value
// case (tailCases: plain; ±0, ±Inf and subnormals; NaN in the first, the
// second or both operands).
func forEachFoldCase(t *testing.T, f func(t *testing.T, id string, r *tensor.RNG, pool *Pool, rows, n int, c tailCase)) {
	forEachKernel(t, "", func(t *testing.T) {
		for w := 1; w <= 3; w++ {
			pool := poolOf(w)
			r := tensor.NewRNG(uint64(70 + w))
			for _, n := range foldCols {
				for _, rows := range foldRows {
					if rows*n > 128*768 || (testing.Short() || raceEnabled) && rows*n > 64*256 {
						continue
					}
					for _, c := range tailCases {
						f(t, fmt.Sprintf("width %d rows=%d n=%d %v", w, rows, n, c), r, pool, rows, n, c)
					}
				}
			}
		}
	})
}

// TestBiasGradMatchesParentLoop: dBias accumulates into a non-zero seed
// (gradient accumulation's running sum) exactly as the scalar band loop
// did.
func TestBiasGradMatchesParentLoop(t *testing.T) {
	forEachFoldCase(t, func(t *testing.T, id string, r *tensor.RNG, pool *Pool, m, n int, c tailCase) {
		dY := tailOperand(r, m*n, m%8, c, false)
		seed := tailOperand(r, n, 0, c, true)
		want, got := append([]float32(nil), seed...), append([]float32(nil), seed...)
		parentBiasGrad(want, dY, m, n)
		pool.BiasGrad(got, dY, m, n)
		if i := sameFold(got, want); i >= 0 {
			t.Fatalf("%s: dBias[%d] = %#08x, loop %#08x", id, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	})
}

// TestLayerNormBackwardMatchesParentLoops: dX, and dγ/dβ accumulated into
// non-zero seeds, equal the parent loops.
func TestLayerNormBackwardMatchesParentLoops(t *testing.T) {
	forEachFoldCase(t, func(t *testing.T, id string, r *tensor.RNG, pool *Pool, rows, n int, c tailCase) {
		x := tailOperand(r, rows*n, 1, c, true)
		dY := tailOperand(r, rows*n, 3, c, false)
		gamma := tailOperand(r, n, 0, c, false)
		mean, invStd := make([]float32, rows), make([]float32, rows)
		for i := range mean {
			mean[i], invStd[i] = r.NormFloat32(), 0.5+r.Float32()
		}
		if c == tailSpecial && rows > 2 {
			mean[1], invStd[2] = float32(math.Copysign(0, -1)), 1e-40
		}
		dgSeed, dbSeed := tailOperand(r, n, 0, c, true), tailOperand(r, n, 0, tailPlain, true)
		wantX, gotX := make([]float32, rows*n), make([]float32, rows*n)
		wantG, gotG := append([]float32(nil), dgSeed...), append([]float32(nil), dgSeed...)
		wantB, gotB := append([]float32(nil), dbSeed...), append([]float32(nil), dbSeed...)
		parentLayerNormBackward(wantX, wantG, wantB, dY, x, gamma, mean, invStd, rows, n)
		pool.LayerNormBackward(gotX, gotG, gotB, dY, x, gamma, mean, invStd, rows, n)
		for _, o := range []struct {
			name      string
			got, want []float32
		}{{"dX", gotX, wantX}, {"dGamma", gotG, wantG}, {"dBeta", gotB, wantB}} {
			if i := sameFold(o.got, o.want); i >= 0 {
				t.Fatalf("%s: %s[%d] = %#08x, loops %#08x", id, o.name, i, math.Float32bits(o.got[i]), math.Float32bits(o.want[i]))
			}
		}
	})
}

// TestSoftmaxGradMatchesParentLoop: the attention backward's softmax
// gradient rows (four-row dot) equal the one-row loop.
func TestSoftmaxGradMatchesParentLoop(t *testing.T) {
	forEachFoldCase(t, func(t *testing.T, id string, r *tensor.RNG, pool *Pool, rows, n int, c tailCase) {
		y := tailOperand(r, rows*n, 2, c, true)
		dY := tailOperand(r, rows*n, 5, c, false)
		want, got := make([]float32, rows*n), make([]float32, rows*n)
		parentSoftmaxGrad(want, dY, y, rows, n)
		softmaxGradRows(got, dY, y, 0, rows, n)
		if i := sameFold(got, want); i >= 0 {
			t.Fatalf("%s: dX[%d] = %#08x, loop %#08x", id, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	})
}

// TestAddMulScaleMatchParentLoops: Add, Mul and Scale, out of place and
// in place, equal the scalar loops at every length 0…70 and at every
// alignment of either operand, and across the pool's ranges at 5000
// elements; where two NaNs meet only NaN-ness is pinned (sameTail).
func TestAddMulScaleMatchParentLoops(t *testing.T) {
	r := tensor.NewRNG(64)
	scales := []float32{0.37, float32(math.Copysign(0, -1)), float32(math.Inf(1)), nanX}
	lengths := []int{5000}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	forEachKernel(t, "", func(t *testing.T) {
		for _, n := range lengths {
			for off := 0; off < 8; off++ {
				for _, c := range tailCases {
					a := tailOperand(r, n, off, c, true)
					b := tailOperand(r, n, 7-off, c, false)
					id := fmt.Sprintf("n=%d off=%d %v", n, off, c)
					for _, op := range []struct {
						name string
						f    func(dst, a, b []float32)
						loop func(a, b float32) float32
					}{
						{"Add", processPool.Add, func(a, b float32) float32 { return a + b }},
						{"Mul", processPool.Mul, func(a, b float32) float32 { return a * b }},
					} {
						want := make([]float32, n)
						for i := range want {
							want[i] = op.loop(a[i], b[i])
						}
						got := make([]float32, n)
						op.f(got, a, b)
						intoA, intoB := append([]float32(nil), a...), append([]float32(nil), b...)
						op.f(intoA, intoA, b)
						op.f(intoB, a, intoB)
						for _, g := range [][]float32{got, intoA, intoB} {
							if i := sameTail(g, want, c); i >= 0 {
								t.Fatalf("%s %s: [%d] = %#08x, loop %#08x", op.name, id, i, math.Float32bits(g[i]), math.Float32bits(want[i]))
							}
						}
					}
					want, got := make([]float32, n), make([]float32, n)
					inPlace := make([]float32, n)
					for _, sc := range scales {
						for i := range want {
							want[i] = sc * a[i]
						}
						processPool.Scale(got, a, sc)
						copy(inPlace, a)
						processPool.Scale(inPlace, inPlace, sc)
						cs := c
						if sc != sc {
							cs = tailNaNBoth
						}
						for _, g := range [][]float32{got, inPlace} {
							if i := sameTail(g, want, cs); i >= 0 {
								t.Fatalf("Scale %s s=%v: [%d] = %#08x, loop %#08x", id, sc, i, math.Float32bits(g[i]), math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	})
}

// foldBenchShapes are the fold benchmarks' train_update (B=1, n=128,
// d=256, d_ff=1024, h=4) and train_gemm (B=4, d=768, d_ff=3072, h=12)
// shapes: FC1's bias gradient, a LayerNorm over the hidden state, and the
// attention probabilities' rows.
var foldBenchShapes = []struct {
	name                   string
	tokens, d, dff, scores int
}{
	{"train_update", 128, 256, 1024, 4 * 128},
	{"train_gemm", 4 * 128, 768, 3072, 4 * 12 * 128},
}

// The fold benchmarks run under every kernel-table entry at the width
// -cpu sets (-cpu 1,2); MB/s counts the bytes each kernel must move.
func BenchmarkBiasGrad(b *testing.B) {
	pool := poolOf(runtime.GOMAXPROCS(0))
	for _, s := range foldBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			dY, dBias := normalSlice(49, s.tokens*s.dff, 1), make([]float32, s.dff)
			benchEachKernel(b, 4*len(dY), func() { pool.BiasGrad(dBias, dY, s.tokens, s.dff) })
		})
	}
}

func BenchmarkLayerNormBackward(b *testing.B) {
	pool := poolOf(runtime.GOMAXPROCS(0))
	for _, s := range foldBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			rows, n := s.tokens, s.d
			x, dY, dX := normalSlice(50, rows*n, 1), normalSlice(51, rows*n, 1), make([]float32, rows*n)
			gamma, mean, invStd := normalSlice(52, n, 1), normalSlice(53, rows, 0.1), normalSlice(54, rows, 0.1)
			dGamma, dBeta := make([]float32, n), make([]float32, n)
			benchEachKernel(b, 4*3*len(x), func() {
				pool.LayerNormBackward(dX, dGamma, dBeta, dY, x, gamma, mean, invStd, rows, n)
			})
		})
	}
}
