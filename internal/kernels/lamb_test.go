package kernels

import (
	"fmt"
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// lambLengths are the sizes the bitwise tests run at: every short length
// (all tail lengths, with and without a vector body before them), one
// fold block exactly and its two neighbours, and several blocks with a
// ragged end (which also forks the pool).
func lambLengths() []int {
	var ls []int
	for n := 0; n <= 70; n++ {
		ls = append(ls, n)
	}
	return append(ls, sumSqBlock-1, sumSqBlock, sumSqBlock+1, 3*sumSqBlock+5)
}

// lambCase is one stage-1 input: gradient, state, weights.
type lambCase struct{ g, m, v, w []float32 }

// newLAMBCase fills a case of n elements starting off elements into a
// fresh allocation (so loads are unaligned for off % 8 != 0). Gradients
// include zeros, subnormals, ±Inf and NaN; v includes exact zeros, as on
// a first step and under never-touched embedding rows.
func newLAMBCase(r *tensor.RNG, n, off int, special bool) lambCase {
	mk := func(scale float32) []float32 {
		x := make([]float32, n+off)[off:]
		for i := range x {
			x[i] = scale * r.NormFloat32()
		}
		return x
	}
	c := lambCase{g: mk(0.1), m: mk(0.01), v: mk(1e-4), w: mk(1)}
	for i := range c.v {
		c.v[i] *= c.v[i] // v >= 0
		if i%5 == 0 {
			c.v[i] = 0
		}
	}
	if special {
		odd := []float32{0, float32(math.Copysign(0, -1)), 1e-42, -3e-45, 1e-30, 3e38,
			float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
		for i := range c.g {
			if i%3 == 1 {
				c.g[i] = odd[(i/3)%len(odd)]
			}
		}
	}
	return c
}

func (c lambCase) clone() lambCase {
	cp := func(x []float32) []float32 { return append([]float32(nil), x...) }
	return lambCase{cp(c.g), cp(c.m), cp(c.v), cp(c.w)}
}

// firstBitDiff returns the first index at which a and b differ in their
// bits, or -1.
func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// stage1 runs LAMBStage1 on a copy of c with fixed, BERT-like scalars, on
// pool.
func (c lambCase) stage1(pool *Pool) (out lambCase, u []float32, wSq, uSq float64) {
	out = c.clone()
	u = make([]float32, len(c.g))
	wSq, uSq = pool.LAMBStage1(out.g, out.m, out.v, out.w, u, 0.37, 0.9, 0.999, 0.19, 0.002, 1e-6, 0.01)
	return out, u, wSq, uSq
}

// TestLAMBBodiesBitwiseAcrossKernels: under every kernel-table entry,
// stage 1 (m, v, u and both norms), SubScaled and SumSquares are bitwise
// what the Go bodies (the scalar entry) produce — at every length and
// slice offset, on ordinary and on special-valued gradients, serial and
// forked.
func TestLAMBBodiesBitwiseAcrossKernels(t *testing.T) {
	type result struct {
		m, v, u, w []float32
		wSq, uSq   float64
		ss         float64
	}
	run := func(pool *Pool, c lambCase) result {
		out, u, wSq, uSq := c.stage1(pool)
		w := append([]float32(nil), c.w...)
		pool.SubScaled(w, u, 0.0123)
		return result{out.m, out.v, u, w, wSq, uSq, pool.SumSquares(c.g)}
	}
	type key struct {
		n, off  int
		special bool
	}
	cases := map[key]lambCase{}
	want := map[key]result{}
	r := tensor.NewRNG(40)
	withKernel(&scalarKernel, func() {
		for _, n := range lambLengths() {
			for off := 0; off < 8; off++ {
				for _, special := range []bool{false, true} {
					k := key{n, off, special}
					cases[k] = newLAMBCase(r, n, off, special)
					want[k] = run(nil, cases[k])
				}
			}
		}
	})
	forEachKernel(t, "", func(t *testing.T) {
		for _, workers := range []int{1, 3} {
			pool := poolOf(workers)
			for k, c := range cases {
				got, w := run(pool, c), want[k]
				id := fmt.Sprintf("n=%d off=%d special=%v workers=%d", k.n, k.off, k.special, workers)
				for _, p := range []struct {
					name      string
					got, want []float32
				}{{"m", got.m, w.m}, {"v", got.v, w.v}, {"u", got.u, w.u}, {"w", got.w, w.w}} {
					if i := firstBitDiff(p.got, p.want); i >= 0 {
						t.Fatalf("%s: %s[%d] = %v (%#08x), Go body %v (%#08x)", id, p.name, i,
							p.got[i], math.Float32bits(p.got[i]), p.want[i], math.Float32bits(p.want[i]))
					}
				}
				for _, p := range []struct {
					name      string
					got, want float64
				}{{"‖w‖²", got.wSq, w.wSq}, {"‖u‖²", got.uSq, w.uSq}, {"SumSquares(g)", got.ss, w.ss}} {
					// A NaN norm may differ in sign and payload: which of two
					// NaN addends an add returns depends on operand order, which
					// Go does not fix. Every NaN makes the trust ratio 1.
					if math.Float64bits(p.got) != math.Float64bits(p.want) && !(math.IsNaN(p.got) && math.IsNaN(p.want)) {
						t.Fatalf("%s: %s = %v, Go body %v", id, p.name, p.got, p.want)
					}
				}
			}
		}
	})
}

// TestLAMBStage1NormsAreSumSquares: the norms stage 1 returns are the
// SumSquares of w and of the u it wrote, bit for bit, under every kernel.
func TestLAMBStage1NormsAreSumSquares(t *testing.T) {
	r := tensor.NewRNG(41)
	forEachKernel(t, "", func(t *testing.T) {
		for _, n := range lambLengths() {
			c := newLAMBCase(r, n, n%8, false)
			_, u, wSq, uSq := c.stage1(nil)
			if w := processPool.SumSquares(c.w); math.Float64bits(wSq) != math.Float64bits(w) {
				t.Fatalf("n=%d: fused ‖w‖² %v, pool.SumSquares(w) %v", n, wSq, w)
			}
			if w := processPool.SumSquares(u); math.Float64bits(uSq) != math.Float64bits(w) {
				t.Fatalf("n=%d: fused ‖u‖² %v, pool.SumSquares(u) %v", n, uSq, w)
			}
		}
	})
}

// TestLAMBGoBodyRoundsEveryOperation pins the portability fix: the Go
// bodies equal an oracle in which every operation is rounded to float32 on
// its own. The oracle computes each operation in float64 and converts the
// result (float64 carries 53 >= 2·24+2 bits, so for +, -, ×, ÷ and √ that
// equals the correctly rounded float32 operation), which leaves a compiler
// no float32 multiply-add to fuse. On amd64 the Go compiler never fuses,
// so there this is a transcription check; on arm64, ppc64le and s390x it
// fails for a body written as `a*b + c`.
func TestLAMBGoBodyRoundsEveryOperation(t *testing.T) {
	mul := func(a, b float32) float32 { return float32(float64(a) * float64(b)) }
	add := func(a, b float32) float32 { return float32(float64(a) + float64(b)) }
	sub := func(a, b float32) float32 { return float32(float64(a) - float64(b)) }
	div := func(a, b float32) float32 { return float32(float64(a) / float64(b)) }
	sqrt := func(a float32) float32 { return float32(math.Sqrt(float64(a))) }
	const gradScale, beta1, beta2, bc1, bc2, eps, decay, step = float32(0.37), float32(0.9), float32(0.999),
		float32(0.19), float32(0.002), float32(1e-6), float32(0.01), float32(0.0123)
	c := newLAMBCase(tensor.NewRNG(42), 1003, 0, false)
	withKernel(&scalarKernel, func() {
		out, u, _, _ := c.stage1(nil)
		w := append([]float32(nil), c.w...)
		processPool.SubScaled(w, u, step)
		for i := range c.g {
			g := mul(c.g[i], gradScale)
			m := add(mul(beta1, c.m[i]), mul(sub(1, beta1), g))
			v := add(mul(beta2, c.v[i]), mul(mul(sub(1, beta2), g), g))
			uu := add(div(div(m, bc1), add(sqrt(div(v, bc2)), eps)), mul(decay, c.w[i]))
			ww := sub(c.w[i], mul(step, uu))
			if out.m[i] != m || out.v[i] != v || u[i] != uu || w[i] != ww {
				t.Fatalf("element %d: Go body (m %v, v %v, u %v, w %v), per-operation oracle (%v, %v, %v, %v)",
					i, out.m[i], out.v[i], u[i], w[i], m, v, uu, ww)
			}
		}
	})
}

// TestSumSquaresWorkerInvariant: the fixed fold gives the same bits at
// every worker count, which the width-dependent partial sums it replaced
// did not.
func TestSumSquaresWorkerInvariant(t *testing.T) {
	x := normalSlice(43, 25*sumSqBlock+123, 1)
	want := poolOf(1).SumSquares(x)
	for _, w := range []int{2, 3, 4, 8} {
		if got := poolOf(w).SumSquares(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SumSquares at %d workers %v, at 1 worker %v", w, got, want)
		}
	}
}

// BenchmarkLAMBStage1 streams stage 1 over a tensor the size of
// BERT-Base's FC1 weight (768×3072, seven arrays of 9.4 MB: memory-
// resident) under every kernel-table entry; MB/s is the algorithmic
// 4 reads + 3 writes. BenchmarkSumSquares and BenchmarkSubScaled do the
// same for the other two bodies.
func BenchmarkLAMBStage1(b *testing.B) {
	c := newLAMBCase(tensor.NewRNG(44), 768*3072, 0, false)
	u := make([]float32, len(c.g))
	benchEachKernel(b, 7*4*len(u), func() {
		processPool.LAMBStage1(c.g, c.m, c.v, c.w, u, 0.37, 0.9, 0.999, 0.19, 0.002, 1e-6, 0.01)
	})
}

func BenchmarkSubScaled(b *testing.B) {
	y, x := normalSlice(45, 768*3072, 1), normalSlice(46, 768*3072, 1)
	benchEachKernel(b, 3*4*len(y), func() { processPool.SubScaled(y, x, 1e-9) })
}

var sumSquaresSink float64

func BenchmarkSumSquares(b *testing.B) {
	x := normalSlice(47, 768*3072, 1)
	benchEachKernel(b, 4*len(x), func() { sumSquaresSink = processPool.SumSquares(x) })
}

func benchEachKernel(b *testing.B, bytes int, f func()) {
	for i := range kernelTable {
		k := &kernelTable[i]
		if !k.supported {
			continue
		}
		b.Run(k.name, func(b *testing.B) {
			withKernel(k, func() {
				b.SetBytes(int64(bytes))
				for i := 0; i < b.N; i++ {
					f()
				}
			})
		})
	}
}
