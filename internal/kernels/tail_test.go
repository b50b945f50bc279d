package kernels

import (
	"fmt"
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// Oracle tests for the fused GEMM tails (addRow, applyTile, layerNormRows)
// against copies of the scalar loops they replaced. The epilogue's
// fused-vs-unfused test cannot see a change here, because both of its legs
// run the same helpers; these pin the helpers themselves, under every
// kernel-table entry, bit for bit.

// parentApplyTile is the scalar write-back the vector row add replaced.
func parentApplyTile(ep *Epilogue, c []float32, ld, r0, r1, c0, c1 int) {
	switch ep.Kind {
	case EpilogueBias:
		for r := r0; r < r1; r++ {
			row := c[r*ld : r*ld+c1]
			for j := c0; j < c1; j++ {
				row[j] += ep.Bias[j]
			}
		}
	case EpilogueBiasGeLU:
		bias := ep.Bias[c0:c1]
		for r := r0; r < r1; r++ {
			row := c[r*ld+c0 : r*ld+c1]
			for j, b := range bias {
				row[j] += b
			}
			if ep.X != nil {
				copy(ep.X[r*ld+c0:r*ld+c1], row)
			}
			geluSpan(row, row)
		}
	case EpilogueBiasResidualLayerNorm:
		for r := r0; r < r1; r++ {
			row := c[r*ld : r*ld+c1]
			res := ep.Residual[r*ld : r*ld+c1]
			for j := c0; j < c1; j++ {
				row[j] = (row[j] + ep.Bias[j]) + res[j]
			}
		}
	}
}

// parentLNRowStats and parentLNRowApply are the one-row-at-a-time
// LayerNorm loops the interleaved statistics and the vector affine
// replaced, with the float32 roundings that make them mean the same on
// every port (on amd64 those change nothing).
func parentLNRowStats(xr []float32, eps float32) (mu, istd float32) {
	n := len(xr)
	var sum float32
	for _, v := range xr {
		sum += v
	}
	mu = sum / float32(n)
	var sq float32
	for _, v := range xr {
		d := v - mu
		sq += float32(d * d)
	}
	istd = 1 / float32(math.Sqrt(float64(sq/float32(n)+eps)))
	return mu, istd
}

func parentLNRowApply(yr, xr, gamma, beta []float32, mu, istd float32) {
	for i, v := range xr {
		yr[i] = float32(float32(gamma[i]*(v-mu))*istd) + beta[i]
	}
}

// NaN operands with distinct payloads: y's is quiet, x's signalling, so a
// test also sees the quieting.
var (
	nanY = math.Float32frombits(0x7fc0_0001)
	nanX = math.Float32frombits(0x7f80_0003)
)

// tailCase names where a case puts special values: nowhere, ±0/±Inf/
// subnormals in every operand, or a NaN in the first operand (the row
// being written), the second (bias, residual, gamma) or both at once.
type tailCase int

const (
	tailPlain tailCase = iota
	tailSpecial
	tailNaNFirst
	tailNaNSecond
	tailNaNBoth
)

var tailCases = []tailCase{tailPlain, tailSpecial, tailNaNFirst, tailNaNSecond, tailNaNBoth}

func (c tailCase) String() string {
	return [...]string{"plain", "special", "NaN in first", "NaN in second", "NaN in both"}[c]
}

// tailOperand fills n values starting off elements into a fresh
// allocation (unaligned for off % 8 != 0). first selects which operand of
// the case it is.
func tailOperand(r *tensor.RNG, n, off int, c tailCase, first bool) []float32 {
	x := make([]float32, n+off)[off:]
	for i := range x {
		x[i] = r.NormFloat32()
	}
	odd := []float32{0, float32(math.Copysign(0, -1)), 1e-42, -3e-45, float32(math.Inf(1)), float32(math.Inf(-1)), 3e38}
	for i := range x {
		switch {
		case c == tailSpecial && i%3 == 1:
			x[i] = odd[(i/3+btoi(first))%len(odd)]
		case i%5 == 2 && (c == tailNaNBoth || (c == tailNaNFirst && first) || (c == tailNaNSecond && !first)):
			x[i] = nanY
			if !first {
				x[i] = nanX
			}
		}
	}
	return x
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sameTail compares got against the oracle bit for bit. Where two NaNs
// meet in one operation (tailNaNBoth) only NaN-ness is pinned: which payload
// a commutative operation returns depends on the operand order the Go
// compiler picks for the oracle.
func sameTail(got, want []float32, c tailCase) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) == math.Float32bits(w) {
			continue
		}
		if c == tailNaNBoth && g != g && w != w {
			continue
		}
		return i
	}
	return -1
}

// TestAddRowMatchesParentLoop: addRow, AddBias and AccumulateInto are
// the scalar y += x under every entry, at every length 0…70 and at every
// alignment of either operand; the vector body returns y's NaN, quieted,
// where both addends are NaN.
func TestAddRowMatchesParentLoop(t *testing.T) {
	r := tensor.NewRNG(60)
	forEachKernel(t, "", func(t *testing.T) {
		for n := 0; n <= 70; n++ {
			for off := 0; off < 8; off++ {
				for _, c := range tailCases {
					y := tailOperand(r, n, off, c, true)
					x := tailOperand(r, n, 7-off, c, false)
					want := append([]float32(nil), y...)
					for i := range want {
						want[i] += x[i]
					}
					id := fmt.Sprintf("n=%d off=%d %v", n, off, c)
					got := append([]float32(nil), y...)
					addRow(got, x)
					if i := sameTail(got, want, c); i >= 0 {
						t.Fatalf("addRow %s: [%d] = %#08x, loop %#08x", id, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
					if activeKernel.addRow != nil && c == tailNaNBoth {
						for i := range n &^ 7 {
							if y[i] != y[i] && math.Float32bits(got[i]) != math.Float32bits(y[i])|0x0040_0000 {
								t.Fatalf("addRow %s: [%d] = %#08x, want y's NaN quieted", id, i, math.Float32bits(got[i]))
							}
						}
					}
					got = append(got[:0], y...)
					AccumulateInto(got, x)
					if i := sameTail(got, want, c); i >= 0 {
						t.Fatalf("AccumulateInto %s: [%d] differs", id, i)
					}
				}
			}
			if n == 0 {
				continue
			}
			for _, m := range []int{1, 3, 7} {
				for _, c := range tailCases {
					x := tailOperand(r, m*n, n%8, c, true)
					bias := tailOperand(r, n, 0, c, false)
					want := append([]float32(nil), x...)
					for i := range want {
						want[i] += bias[i%n]
					}
					AddBias(x, bias, m, n)
					if i := sameTail(x, want, c); i >= 0 {
						t.Fatalf("AddBias m=%d n=%d %v: [%d] differs", m, n, c, i)
					}
				}
			}
		}
	})
}

// TestApplyTileMatchesParentLoops: every kind's element-wise write-back
// over tiles of width 0…70 at unaligned column origins, rows of a wider
// matrix, equals the scalar loops, save buffer included.
func TestApplyTileMatchesParentLoops(t *testing.T) {
	r := tensor.NewRNG(61)
	forEachKernel(t, "", func(t *testing.T) {
		const m, r0, r1 = 5, 1, 4
		for w := 0; w <= 70; w++ {
			for _, c0 := range []int{0, 1, 3, 8, 13} {
				ld := c0 + w + 5
				for _, kind := range epilogueKinds {
					for _, c := range tailCases {
						ep := &Epilogue{Kind: kind, Bias: tailOperand(r, ld, 0, c, false)}
						if kind == EpilogueBiasResidualLayerNorm {
							ep.Residual = tailOperand(r, m*ld, 0, c, false)
						}
						acc := tailOperand(r, m*ld, 0, c, true)
						want, got := append([]float32(nil), acc...), append([]float32(nil), acc...)
						wep, gep := *ep, *ep
						if kind == EpilogueBiasGeLU {
							wep.X, gep.X = make([]float32, m*ld), make([]float32, m*ld)
						}
						parentApplyTile(&wep, want, ld, r0, r1, c0, c0+w)
						gep.applyTile(got, ld, r0, r1, c0, c0+w)
						id := fmt.Sprintf("%s w=%d c0=%d %v", kind, w, c0, c)
						if i := sameTail(got, want, c); i >= 0 {
							t.Fatalf("%s: c[%d] = %#08x, loops %#08x", id, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
						if i := sameTail(gep.X, wep.X, c); i >= 0 {
							t.Fatalf("%s: X[%d] differs", id, i)
						}
					}
				}
			}
		}
	})
}

// TestLayerNormRowsMatchParentLoops: the interleaved statistics and the
// vector affine equal the one-row loops — output, mean, invStd and the
// saved input — at every width 0…70, for row counts that are and are not
// multiples of the interleave, in place and out of place, on unaligned
// rows, through layerNormRows, LayerNormForward (serial and forked) and
// the epilogue's finalize pass.
func TestLayerNormRowsMatchParentLoops(t *testing.T) {
	r := tensor.NewRNG(62)
	forEachKernel(t, "", func(t *testing.T) {
		for n := 0; n <= 70; n++ {
			for _, rows := range []int{1, 3, 4, 5, 8, 9} {
				for _, c := range tailCases {
					x := tailOperand(r, rows*n, (n+rows)%8, c, true)
					gamma := tailOperand(r, n, 0, c, false)
					beta := tailOperand(r, n, 0, tailPlain, false)
					if c == tailSpecial {
						beta = tailOperand(r, n, 3, c, false)
					}
					const eps = 1e-5
					want := make([]float32, rows*n)
					wMean, wInv := make([]float32, rows), make([]float32, rows)
					for i := range rows {
						xr, yr := x[i*n:(i+1)*n], want[i*n:(i+1)*n]
						wMean[i], wInv[i] = parentLNRowStats(xr, eps)
						parentLNRowApply(yr, xr, gamma, beta, wMean[i], wInv[i])
					}
					check := func(leg string, y, mean, invStd, save []float32) {
						t.Helper()
						id := fmt.Sprintf("%s n=%d rows=%d %v", leg, n, rows, c)
						if i := sameTail(y, want, c); i >= 0 {
							t.Fatalf("%s: y[%d] = %#08x, loops %#08x", id, i, math.Float32bits(y[i]), math.Float32bits(want[i]))
						}
						if i := sameTail(mean, wMean, c); i >= 0 {
							t.Fatalf("%s: mean[%d] differs", id, i)
						}
						if i := sameTail(invStd, wInv, c); i >= 0 {
							t.Fatalf("%s: invStd[%d] differs", id, i)
						}
						if save != nil && firstBitDiff(save, x) >= 0 {
							t.Fatalf("%s: saved input differs", id)
						}
					}

					y, mean, invStd := make([]float32, rows*n), make([]float32, rows), make([]float32, rows)
					layerNormRows(y, x, nil, gamma, beta, mean, invStd, 0, rows, n, eps)
					check("out of place", y, mean, invStd, nil)

					inPlace, save := append([]float32(nil), x...), make([]float32, rows*n)
					layerNormRows(inPlace, inPlace, save, gamma, beta, mean, invStd, 0, rows, n, eps)
					check("in place", inPlace, mean, invStd, save)

					for _, workers := range []int{1, 3} {
						old := SetMaxWorkers(workers)
						LayerNormForward(y, x, gamma, beta, mean, invStd, rows, n, eps)
						SetMaxWorkers(old)
						check(fmt.Sprintf("LayerNormForward workers=%d", workers), y, mean, invStd, nil)
					}

					ep := &Epilogue{Kind: EpilogueBiasResidualLayerNorm, Gamma: gamma, Beta: beta, Eps: eps,
						X: save, Mean: mean, InvStd: invStd}
					copy(inPlace, x)
					ep.finalizeLNRows(inPlace, 0, rows, n)
					check("finalizeLNRows", inPlace, mean, invStd, save)
				}
			}
		}
	})
}

// TestLayerNormGoBodyRoundsEveryOperation pins the portability fix: the Go
// bodies of LayerNorm forward and backward equal an oracle in which every
// operation is rounded to float32 on its own (computed in float64 and
// converted, as TestLAMBGoBodyRoundsEveryOperation explains), which leaves
// a compiler no float32 multiply-add to fuse. On amd64 this is a
// transcription check; on arm64, ppc64le and s390x it fails for a body
// written as `a*b + c`.
func TestLayerNormGoBodyRoundsEveryOperation(t *testing.T) {
	mul := func(a, b float32) float32 { return float32(float64(a) * float64(b)) }
	add := func(a, b float32) float32 { return float32(float64(a) + float64(b)) }
	sub := func(a, b float32) float32 { return float32(float64(a) - float64(b)) }
	div := func(a, b float32) float32 { return float32(float64(a) / float64(b)) }
	const rows, n, eps = 6, 67, float32(1e-5)
	r := tensor.NewRNG(63)
	x, dY := randSlice(r, rows*n), randSlice(r, rows*n)
	gamma, beta := randSlice(r, n), randSlice(r, n)
	dG0, dB0 := randSlice(r, n), randSlice(r, n)
	withKernel(&scalarKernel, func() {
		y, mean, invStd := make([]float32, rows*n), make([]float32, rows), make([]float32, rows)
		LayerNormForward(y, x, gamma, beta, mean, invStd, rows, n, eps)
		dX := make([]float32, rows*n)
		dG, dB := append([]float32(nil), dG0...), append([]float32(nil), dB0...)
		LayerNormBackward(dX, dG, dB, dY, x, gamma, mean, invStd, rows, n)

		fn := float32(n)
		invN := div(1, fn)
		for i := range rows {
			xr := x[i*n : (i+1)*n]
			var s, sq float32
			for _, v := range xr {
				s = add(s, v)
			}
			mu := div(s, fn)
			for _, v := range xr {
				d := sub(v, mu)
				sq = add(sq, mul(d, d))
			}
			istd := div(1, float32(math.Sqrt(float64(add(div(sq, fn), eps)))))
			if mean[i] != mu || invStd[i] != istd {
				t.Fatalf("row %d: Go body mean %v invStd %v, per-operation oracle %v %v", i, mean[i], invStd[i], mu, istd)
			}
			var sumG, sumGX float32
			for j, v := range xr {
				if want := add(mul(mul(gamma[j], sub(v, mu)), istd), beta[j]); y[i*n+j] != want {
					t.Fatalf("y[%d][%d]: Go body %v, per-operation oracle %v", i, j, y[i*n+j], want)
				}
				xhat, g := mul(sub(v, mu), istd), mul(dY[i*n+j], gamma[j])
				sumG, sumGX = add(sumG, g), add(sumGX, mul(g, xhat))
			}
			for j, v := range xr {
				xhat, g := mul(sub(v, mu), istd), mul(dY[i*n+j], gamma[j])
				want := mul(istd, sub(sub(g, mul(invN, sumG)), mul(mul(xhat, invN), sumGX)))
				if dX[i*n+j] != want {
					t.Fatalf("dX[%d][%d]: Go body %v, per-operation oracle %v", i, j, dX[i*n+j], want)
				}
			}
		}
		for j := range n {
			g, b := dG0[j], dB0[j]
			for i := range rows {
				xhat := mul(sub(x[i*n+j], mean[i]), invStd[i])
				g, b = add(g, mul(dY[i*n+j], xhat)), add(b, dY[i*n+j])
			}
			if dG[j] != g || dB[j] != b {
				t.Fatalf("column %d: Go body dGamma %v dBeta %v, per-operation oracle %v %v", j, dG[j], dB[j], g, b)
			}
		}
	})
}

// TestGEMMPackedEpilogueIgnoresOldC: an epilogue call defines all of C,
// whatever C held before — the contract the evaluation workspace relies
// on, since it hands GEMMs reused, uninitialised outputs. Old NaNs must not
// reach the result, on pre-packed and per-call panels, across the NC
// column-block and KC depth-block boundaries.
func TestGEMMPackedEpilogueIgnoresOldC(t *testing.T) {
	r := tensor.NewRNG(65)
	forEachKernel(t, "", func(t *testing.T) {
		for _, sh := range [][3]int{{7, 17, 33}, {130, 96, 96}, {9, gemmNC + 52, gemmKC + 44}} {
			m, n, k := sh[0], sh[1], sh[2]
			a, b := randSlice(r, m*k), randSlice(r, k*n)
			for _, kind := range epilogueKinds {
				ep := makeEpilogue(r, kind, m, n, false)
				for _, pb := range []*PackedB{PackWeight(false, n, k, b), describeWeight(false, n, k, b)} {
					want := make([]float32, m*n)
					GEMMPathFused.GEMMPackedEpilogue(false, m, n, k, 1, a, pb, ep, want)
					got := make([]float32, m*n)
					for i := range got {
						got[i] = float32(math.NaN())
					}
					GEMMPathFused.GEMMPackedEpilogue(false, m, n, k, 1, a, pb, ep, got)
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("%s %dx%dx%d: element %d is %v over old NaN, %v over zeros", kind, m, n, k, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// BenchmarkGEMMEpilogue times one fused GEMM call on pre-packed weights
// with no tail (the bare product) and with each tail, at serving shapes:
// a 292-token batch through the d=256, d_ff=1024 projections (QKV and the
// output projection are 292×256×256, FC1 292×1024×256, FC2 292×256×1024)
// and the 43-row MLM decoder over an 8192-word vocabulary. A tail's cost
// is its time over the bare product's.
func BenchmarkGEMMEpilogue(b *testing.B) {
	type shape struct{ m, n, k int }
	shapes := []shape{{292, 256, 256}, {292, 1024, 256}, {292, 256, 1024}, {292, 1024, 1024}, {43, 8192, 256}}
	kinds := append([]EpilogueKind{EpilogueNone}, epilogueKinds...)
	r := tensor.NewRNG(64)
	for _, s := range shapes {
		// Activations of unit scale and weights of 1/√k, as an initialised
		// layer has: the GeLU tail then sees the values it sees in serving.
		a, w := randSlice(r, s.m*s.k), randSlice(r, s.n*s.k)
		for i := range w {
			w[i] /= float32(math.Sqrt(float64(s.k)))
		}
		pb := PackWeight(true, s.n, s.k, w)
		c := make([]float32, s.m*s.n)
		for _, kind := range kinds {
			ep := makeEpilogue(r, kind, s.m, s.n, false)
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.m, s.n, s.k, kind), func(b *testing.B) {
				b.SetBytes(4 * int64(s.m*s.n)) // the output the tail streams
				for i := 0; i < b.N; i++ {
					GEMMPathAuto.GEMMPackedEpilogue(false, s.m, s.n, s.k, 1, a, pb, ep, c)
				}
			})
		}
	}
}
