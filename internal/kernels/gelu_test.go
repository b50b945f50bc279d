package kernels

import (
	"flag"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"demystbert/internal/tensor"
)

// geluFull widens TestGeLUMatchesReferenceBits from every 257th float32
// bit pattern to all 2^32 (about 2.5 minutes on two cores; check.sh has
// the leg).
var geluFull = flag.Bool("gelu-full", false, "sweep every float32 bit pattern in TestGeLUMatchesReferenceBits")

// geluFuncs pairs each span kernel with the expression it must reproduce.
var geluFuncs = []struct {
	name string
	span func(dst, x []float32) int
	ref  func(float32) float32
}{
	{"GELU", geluSpan, geluScalar},
	{"GELU'", geluGradSpan, geluGradScalar},
}

// geluEdgeBits are the inputs where the fast path changes behaviour: the
// zeros, the subnormal range's ends, the float32 extremes, ±geluRange and
// every interval edge each with the four neighbours on either side, the
// infinities and NaNs of both kinds and signs.
func geluEdgeBits() []uint32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, // smallest subnormals
		0x007fffff, 0x807fffff, // largest subnormals
		0x00800000, 0x80800000, // smallest normals
		0x7f7fffff, 0xff7fffff, // largest finite
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7fc12345, // quiet NaNs
		0x7f800001, 0xffa00000, // signalling NaNs
	}
	for i := 0; i <= geluCells; i++ {
		edge := math.Float32bits(float32(-geluRange + float64(i)/8))
		for d := uint32(0); d <= 4; d++ {
			bits = append(bits, edge+d, edge-d)
		}
	}
	return bits
}

// TestGeLUMatchesReferenceBits is the contract of gelu.go: through the
// span entry points, GELU and GELU' are the float64 reference expressions
// bit for bit — on a strided sweep of the whole float32 space (all of it
// under -gelu-full), and on the edge inputs at every span length that
// crosses a staging block, with dst separate from and aliasing x.
func TestGeLUMatchesReferenceBits(t *testing.T) {
	stride := uint64(257)
	switch {
	case *geluFull:
		stride = 1
	case raceEnabled || testing.Short():
		stride = 257 * 31
	}
	const chunk = 1 << 20 // inputs per work item
	total := (uint64(1)<<32 + stride - 1) / stride
	for _, f := range geluFuncs {
		var next, mismatches atomic.Uint64
		var first atomic.Uint64 // bits+1 of one mismatching input
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := make([]float32, chunk)
				got := make([]float32, chunk)
				for {
					lo := next.Add(chunk) - chunk
					if lo >= total {
						return
					}
					n := int(min(chunk, total-lo))
					for i := range x[:n] {
						x[i] = math.Float32frombits(uint32((lo + uint64(i)) * stride))
					}
					f.span(got[:n], x[:n])
					for i, xv := range x[:n] {
						if math.Float32bits(got[i]) != math.Float32bits(f.ref(xv)) {
							mismatches.Add(1)
							first.Store(uint64(math.Float32bits(xv)) + 1)
						}
					}
				}
			}()
		}
		wg.Wait()
		if n := mismatches.Load(); n != 0 {
			b := uint32(first.Load() - 1)
			t.Errorf("%s: %d of %d inputs differ from the reference, e.g. x = %v (bits %#08x)",
				f.name, n, total, math.Float32frombits(b), b)
		} else {
			t.Logf("%s: %d inputs (bit patterns 0, %d, %d, ...), 0 mismatches", f.name, total, stride, 2*stride)
		}
	}

	// Edge inputs, padded with ordinary values, at lengths 1..130 from a
	// rotating start so that every edge meets every position of a block.
	r := tensor.NewRNG(31)
	var pool []float32
	for _, b := range geluEdgeBits() {
		pool = append(pool, math.Float32frombits(b), 2*r.NormFloat32())
	}
	for _, f := range geluFuncs {
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
				f.span(got, x)
				f.span(x, x) // dst aliasing x
				for i := range want {
					w := math.Float32bits(want[i])
					if g, a := math.Float32bits(got[i]), math.Float32bits(x[i]); g != w || a != w {
						t.Fatalf("%s length %d element %d: got %#08x, in place %#08x, want %#08x",
							f.name, length, i, g, a, w)
					}
				}
			}
		}
	}
}

// TestGeLUPublicEntryPointsMatchReference: GeLUForward and GeLUBackward —
// the pooled drivers over the spans — on a buffer large enough to fork,
// with dX aliasing dY.
func TestGeLUPublicEntryPointsMatchReference(t *testing.T) {
	x := normalSlice(32, 3*minForkWork+17, 2)
	copy(x, []float32{0, float32(math.Copysign(0, -1)), 6, -6, 7.5, -7.5, float32(math.Inf(1))})
	y := make([]float32, len(x))
	GeLUForward(y, x)
	dY := normalSlice(33, len(x), 1)
	dX := make([]float32, len(x))
	GeLUBackward(dX, dY, x)
	inPlace := append([]float32(nil), dY...)
	GeLUBackward(inPlace, inPlace, x)
	for i, xv := range x {
		if math.Float32bits(y[i]) != math.Float32bits(geluScalar(xv)) {
			t.Fatalf("GeLUForward(%v) = %v, want %v", xv, y[i], geluScalar(xv))
		}
		want := math.Float32bits(dY[i] * geluGradScalar(xv))
		if math.Float32bits(dX[i]) != want || math.Float32bits(inPlace[i]) != want {
			t.Fatalf("GeLUBackward at x = %v: %v, in place %v, want %v",
				xv, dX[i], inPlace[i], math.Float32frombits(want))
		}
	}
}

// TestGeLUFallbackRate keeps the fast path honest: exactness alone would
// still hold if a change of geluEps, the degree or the tables sent every
// input to the reference expression. On activation-like inputs the
// reference may run for at most one element in a thousand (N(0,1)) or in a
// hundred (variance 3, where |x| >= 6 and the cancelling left tail
// x < -4 are no longer rare).
func TestGeLUFallbackRate(t *testing.T) {
	const n = 1 << 20
	dst := make([]float32, n)
	for _, tc := range []struct {
		std   float32
		limit float64
	}{{1, 1e-3}, {float32(math.Sqrt(3)), 1e-2}} {
		x := normalSlice(34, n, tc.std)
		for _, f := range geluFuncs {
			rate := float64(f.span(dst, x)) / n
			t.Logf("%s on N(0, %.3g²): reference taken for %.1f elements per million", f.name, tc.std, 1e6*rate)
			if rate >= tc.limit {
				t.Errorf("%s on N(0, %.3g²): fallback rate %.2e, want < %.0e", f.name, tc.std, rate, tc.limit)
			}
		}
	}
}

// FuzzGeLUExact: any float32, by its bits, alone and inside a span.
func FuzzGeLUExact(f *testing.F) {
	for _, b := range geluEdgeBits() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		x := math.Float32frombits(bits)
		span := []float32{1.5, x, -0.25}
		for _, fn := range geluFuncs {
			var one [1]float32
			var three [3]float32
			fn.span(one[:], []float32{x})
			fn.span(three[:], span)
			want := math.Float32bits(fn.ref(x))
			if g1, g3 := math.Float32bits(one[0]), math.Float32bits(three[1]); g1 != want || g3 != want {
				t.Fatalf("%s(%v, bits %#08x) = %#08x alone, %#08x in a span, want %#08x", fn.name, x, bits, g1, g3, want)
			}
		}
	})
}

func normalSlice(seed uint64, n int, std float32) []float32 {
	r := tensor.NewRNG(seed)
	x := make([]float32, n)
	for i := range x {
		x[i] = std * r.NormFloat32()
	}
	return x
}

// BenchmarkGeLUForward / BenchmarkGeLUBackward time the public kernels on
// N(0,1) inputs at FC1's train_update size (128×1024) and report
// ns/element; run with -cpu 1 for the per-core figure.
func BenchmarkGeLUForward(b *testing.B) {
	x := normalSlice(1, 128*1024, 1)
	y := make([]float32, len(x))
	b.SetBytes(int64(8 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GeLUForward(y, x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/element")
}

func BenchmarkGeLUBackward(b *testing.B) {
	x := normalSlice(1, 128*1024, 1)
	dY := normalSlice(2, len(x), 1)
	dX := make([]float32, len(x))
	b.SetBytes(int64(12 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GeLUBackward(dX, dY, x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/element")
}
