package kernels

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"demystbert/internal/tensor"
)

// transcendental is one exact-rounding span under test: the reference
// expression every body must reproduce bit for bit, the vector body a
// kernel-table entry carries for it (raw is the table field, nil when the
// entry runs the Go body; span adapts it to one input slice), the Go body,
// and the inputs where its fast path changes behaviour.
type transcendental struct {
	name   string
	ref    func(float32) float32
	vec    func(k *gemmKernel) (raw any, span func(dst, x []float32) uint64)
	goBody func(dst, x []float32) int
	edges  func() []uint32
}

// ones is the dY under which the GELU' product body returns GELU' itself:
// 1·g is g, bit for bit.
var ones = func() (o [64]float32) {
	for i := range o {
		o[i] = 1
	}
	return o
}()

var (
	geluFn = transcendental{"GELU", geluScalar,
		func(k *gemmKernel) (any, func(dst, x []float32) uint64) { return k.gelu, k.gelu },
		geluGo, geluEdgeBits}
	geluGradFn = transcendental{"GELU'", geluGradScalar,
		func(k *gemmKernel) (any, func(dst, x []float32) uint64) {
			return k.geluGrad, func(dst, x []float32) uint64 { return k.geluGrad(dst, ones[:len(x)], x) }
		},
		geluGradGo, geluEdgeBits}
	// exp is tested at m = 0; the float32 shift in front of it is one IEEE
	// subtraction on every body (TestSoftmaxRowMatchesScalarOracle and
	// FuzzExpExact vary m).
	expFn = transcendental{"exp", func(x float32) float32 { return expScalar(x, 0) },
		func(k *gemmKernel) (any, func(dst, x []float32) uint64) {
			return k.exp, func(dst, x []float32) uint64 { return k.exp(dst, x, 0) }
		},
		func(dst, x []float32) int { expGo(dst, x, 0); return 0 }, expEdgeBits}
)

// spanBody is one body of a transcendental, named after the kernel-table
// entries that run it.
type spanBody struct {
	name string
	span func(dst, x []float32) (fallbacks int)
}

// bodies returns each distinct body the host can run once: the vector body
// of every supported entry that has one, and the Go body, which all the
// others share. The sweeps test bodies rather than entries so that the
// expensive reference is evaluated once per input.
func (f transcendental) bodies() []spanBody {
	var out []spanBody
	seen := map[uintptr]int{}
	for i := range kernelTable {
		k := &kernelTable[i]
		if !k.supported {
			continue
		}
		raw, vec := f.vec(k)
		key := reflect.ValueOf(raw).Pointer() // 0 for a nil func: the Go body
		if j, ok := seen[key]; ok {
			out[j].name += "," + k.name
			continue
		}
		seen[key] = len(out)
		b := spanBody{k.name, f.goBody}
		if key != 0 {
			b.span = func(dst, x []float32) int { return vecSpan(dst, x, vec, f.ref) }
		}
		out = append(out, b)
	}
	return out
}

// sweepBits compares every body of f with f.ref on the float32 bit
// patterns 0, stride, 2·stride, ... (stride 1: all 2^32, NaNs by their
// bits too), evaluating the reference once per input.
func sweepBits(t *testing.T, f transcendental, stride uint64) {
	bodies := f.bodies()
	const chunk = 1 << 20 // inputs per work item
	total := (uint64(1)<<32 + stride - 1) / stride
	var next atomic.Uint64
	mismatches := make([]atomic.Uint64, len(bodies))
	first := make([]atomic.Uint64, len(bodies)) // bits+1 of one mismatching input
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := make([]float32, chunk)
			want := make([]float32, chunk)
			got := make([]float32, chunk)
			for {
				lo := next.Add(chunk) - chunk
				if lo >= total {
					return
				}
				n := int(min(chunk, total-lo))
				for i := range x[:n] {
					x[i] = math.Float32frombits(uint32((lo + uint64(i)) * stride))
					want[i] = f.ref(x[i])
				}
				for b, body := range bodies {
					body.span(got[:n], x[:n])
					for i := range x[:n] {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							mismatches[b].Add(1)
							first[b].Store(uint64(math.Float32bits(x[i])) + 1)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for b, body := range bodies {
		if n := mismatches[b].Load(); n != 0 {
			bits := uint32(first[b].Load() - 1)
			t.Errorf("%s on %s: %d of %d inputs differ from the reference, e.g. x = %v (bits %#08x)",
				f.name, body.name, n, total, math.Float32frombits(bits), bits)
		} else {
			t.Logf("%s on %s: %d inputs (bit patterns 0, %d, %d, ...), 0 mismatches", f.name, body.name, total, stride, 2*stride)
		}
	}
}

// checkEdges runs every body of f on its edge inputs, padded with
// ordinary values, at lengths 1..130 from a rotating start so that every
// edge meets every lane of a block, with dst separate from and aliasing x.
func checkEdges(t *testing.T, f transcendental) {
	r := tensor.NewRNG(31)
	var pool []float32
	for _, b := range f.edges() {
		pool = append(pool, math.Float32frombits(b), 2*r.NormFloat32())
	}
	for _, body := range f.bodies() {
		start := 0
		for length := 1; length <= 130; length++ {
			for rep := 0; rep < len(pool)/length+1; rep++ {
				x := make([]float32, length)
				for i := range x {
					x[i] = pool[(start+i)%len(pool)]
				}
				start += length
				want := make([]float32, length)
				for i, xv := range x {
					want[i] = f.ref(xv)
				}
				got := make([]float32, length)
				body.span(got, x)
				body.span(x, x) // dst aliasing x
				for i := range want {
					w := math.Float32bits(want[i])
					if g, a := math.Float32bits(got[i]), math.Float32bits(x[i]); g != w || a != w {
						t.Fatalf("%s on %s, length %d element %d: got %#08x, in place %#08x, want %#08x",
							f.name, body.name, length, i, g, a, w)
					}
				}
			}
		}
	}
}

// TestTranscendentalBodiesBitwiseAcrossKernels: every public path through
// the three spans — GeLUForward, GeLUBackward with dX aliasing dY, the
// bias+GeLU epilogue, Softmax, CrossEntropyForward and AttentionForward —
// gives the same bits under every kernel-table entry the host supports, on
// lengths 0..70 and ragged tails past the 16- and 64-lane blocks, at
// element offsets 0..7, with special values mixed in. The one exception is
// the epilogue's GEMM: the scalar micro-kernel rounds every product and the
// vector ones fuse it, so there each entry's GeLU tail is checked against
// the reference applied to the pre-activation that entry saved.
func TestTranscendentalBodiesBitwiseAcrossKernels(t *testing.T) {
	lengths := []int{}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 127, 129, 200, 1031)
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), -1e9, 7.99, -8, 88.8, -103.99, -5.2}

	// run computes every output under the installed kernel; outputs are
	// compared by their bits.
	run := func(t *testing.T) (names []string, outs [][]uint32) {
		r := tensor.NewRNG(61)
		input := func(n int, std float32) []float32 {
			x := normalSlice(r.Uint64(), n, std)
			for i := range x {
				if r.Intn(9) == 0 {
					x[i] = specials[r.Intn(len(specials))]
				}
			}
			return x
		}
		record := func(name string, v ...float32) {
			b := make([]uint32, len(v))
			for i, f := range v {
				b[i] = math.Float32bits(f)
			}
			names, outs = append(names, name), append(outs, b)
		}
		for _, n := range lengths {
			off := n % 8
			x := input(off+n, 3)[off:]
			y := make([]float32, off+n)[off:]
			processPool.GeLUForward(y, x)
			record(fmt.Sprintf("GeLUForward n=%d", n), y...)
			dY := append(make([]float32, off), normalSlice(r.Uint64(), n, 1)...)[off:]
			processPool.GeLUBackward(dY, dY, x)
			record(fmt.Sprintf("GeLUBackward n=%d", n), dY...)

			if n == 0 {
				continue
			}
			rows := 1 + n%3
			s := input(off+rows*n, 4)[off:]
			processPool.Softmax(s, s, rows, n)
			record(fmt.Sprintf("Softmax %dx%d", rows, n), s...)
			logits := input(off+rows*n, 4)[off:]
			probs := make([]float32, rows*n)
			targets := make([]int, rows)
			for i := range targets {
				targets[i] = r.Intn(n+1) - 1 // IgnoreIndex included
			}
			loss := processPool.CrossEntropyForward(probs, logits, targets, rows, n)
			lb := math.Float64bits(loss)
			record(fmt.Sprintf("CrossEntropyForward %dx%d", rows, n), append(probs, math.Float32frombits(uint32(lb)), math.Float32frombits(uint32(lb>>32)))...)

			const k = 24
			a := normalSlice(r.Uint64(), rows*k, 1)
			w := normalSlice(r.Uint64(), n*k, 1)
			bias := input(n, 2)
			c := make([]float32, off+rows*n)[off:]
			xs := make([]float32, rows*n)
			// The forced fused route: the tail on the fused write-back at every shape.
			GEMMPathFused.GEMMPackedEpilogue(nil, false, rows, n, k, 1, a, PackWeight(true, n, k, w), &Epilogue{Kind: EpilogueBiasGeLU, Bias: bias, X: xs}, c)
			for i, xv := range xs {
				if g, w := math.Float32bits(c[i]), math.Float32bits(geluScalar(xv)); g != w {
					t.Fatalf("f32 bias+GeLU epilogue %dx%d element %d: GELU(%v) = %#08x, want %#08x", rows, n, i, xv, g, w)
				}
			}
		}
		for _, causal := range []bool{false, true} {
			offsets := []int{0}
			for _, n := range []int{1, 2, 15, 16, 17, 63, 64, 65, 70} {
				offsets = append(offsets, offsets[len(offsets)-1]+n)
			}
			const heads, dHead = 2, 8
			size := offsets[len(offsets)-1] * heads * dHead
			q, kk, v := input(size, 2), input(size, 2), normalSlice(r.Uint64(), size, 1)
			for i := range q { // no NaN/Inf into the scores: one would spread over a whole row
				if math.IsNaN(float64(q[i])) || math.IsInf(float64(q[i]), 0) {
					q[i] = 0
				}
				if math.IsNaN(float64(kk[i])) || math.IsInf(float64(kk[i]), 0) {
					kk[i] = 1
				}
			}
			out := make([]float32, size)
			// Both products on the naive loops, the same Go code on every
			// entry, so only the softmax's exp can tell entries apart.
			GEMMPathNaive.AttentionForward(nil, &Attention{Q: q, K: kk, V: v, Offsets: offsets, Heads: heads, DHead: dHead, Scale: 0.35, Causal: causal}, out, nil)
			record(fmt.Sprintf("AttentionForward causal=%v", causal), out...)
		}
		return names, outs
	}

	var wantNames []string
	var want [][]uint32
	ref := ""
	for i := len(kernelTable) - 1; i >= 0; i-- { // the scalar entry first
		k := &kernelTable[i]
		if !k.supported {
			t.Logf("host CPU/OS does not support the %s kernel", k.name)
			continue
		}
		var names []string
		var got [][]uint32
		withKernel(k, func() { names, got = run(t) })
		if want == nil {
			wantNames, want, ref = names, got, k.name
			continue
		}
		for c := range want {
			for j := range want[c] {
				if got[c][j] != want[c][j] {
					t.Errorf("%s: %s and %s differ at element %d: %#08x vs %#08x", wantNames[c], k.name, ref, j, got[c][j], want[c][j])
					break
				}
			}
		}
	}
}
