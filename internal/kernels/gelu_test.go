package kernels

import (
	"flag"
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// geluFull widens TestGeLUMatchesReferenceBits from every 257th float32
// bit pattern to all 2^32 (about 2.5 minutes on two cores; check.sh has
// the leg).
var geluFull = flag.Bool("gelu-full", false, "sweep every float32 bit pattern in TestGeLUMatchesReferenceBits")

// geluFuncs are the two GeLU spans (transcend_test.go).
var geluFuncs = []transcendental{geluFn, geluGradFn}

// edgeBits are the float32 inputs where any fast path may change
// behaviour: the zeros, the subnormal range's ends, the float32 extremes,
// the infinities and NaNs of both kinds and signs.
var edgeBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, // smallest subnormals
	0x007fffff, 0x807fffff, // largest subnormals
	0x00800000, 0x80800000, // smallest normals
	0x7f7fffff, 0xff7fffff, // largest finite
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7fc12345, // quiet NaNs
	0x7f800001, 0xffa00000, // signalling NaNs
}

// geluEdgeBits adds the edges of both bodies' cells — every 1/8 on
// [-geluRange, geluRange] and every integer on [-geluVecRange,
// geluVecRange] — each with the four neighbours on either side.
func geluEdgeBits() []uint32 {
	bits := append([]uint32(nil), edgeBits...)
	for i := 0; i <= geluCells; i++ {
		bits = appendNeighbours(bits, float32(-geluRange+float64(i)/8), 4)
	}
	for i := 0; i <= geluVecCells; i++ {
		bits = appendNeighbours(bits, float32(-geluVecRange+i), 4)
	}
	return bits
}

// appendNeighbours appends x's bits and those of the d floats on either
// side of it.
func appendNeighbours(bits []uint32, x float32, d uint32) []uint32 {
	b := math.Float32bits(x)
	for i := uint32(0); i <= d; i++ {
		bits = append(bits, b+i, b-i)
	}
	return bits
}

// TestGeLUMatchesReferenceBits is the contract of gelu.go: every GELU and
// GELU' body the host can run — the kernel table's vector body and the Go
// body — is the float64 reference expression bit for bit, on a strided
// sweep of the whole float32 space (all of it under -gelu-full), and on
// the edge inputs at every span length that crosses a block, with dst
// separate from and aliasing x.
func TestGeLUMatchesReferenceBits(t *testing.T) {
	stride := uint64(257)
	switch {
	case *geluFull:
		stride = 1
	case raceEnabled || testing.Short():
		stride = 257 * 31
	}
	for _, f := range geluFuncs {
		sweepBits(t, f, stride)
		checkEdges(t, f)
	}
}

// TestGeLUPublicEntryPointsMatchReference: GeLUForward and GeLUBackward —
// the pooled drivers over the spans — on a buffer large enough to fork,
// with dX aliasing dY.
func TestGeLUPublicEntryPointsMatchReference(t *testing.T) {
	x := normalSlice(32, 3*minForkWork+17, 2)
	copy(x, []float32{0, float32(math.Copysign(0, -1)), 6, -6, 7.5, -7.5, float32(math.Inf(1))})
	y := make([]float32, len(x))
	processPool.GeLUForward(y, x)
	dY := normalSlice(33, len(x), 1)
	dX := make([]float32, len(x))
	processPool.GeLUBackward(dX, dY, x)
	inPlace := append([]float32(nil), dY...)
	processPool.GeLUBackward(inPlace, inPlace, x)
	for i, xv := range x {
		if math.Float32bits(y[i]) != math.Float32bits(geluScalar(xv)) {
			t.Fatalf("pool.GeLUForward(%v) = %v, want %v", xv, y[i], geluScalar(xv))
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
			for _, body := range f.bodies() {
				rate := float64(body.span(dst, x)) / n
				t.Logf("%s on %s, N(0, %.3g²): reference taken for %.1f elements per million", f.name, body.name, tc.std, 1e6*rate)
				if rate >= tc.limit {
					t.Errorf("%s on %s, N(0, %.3g²): fallback rate %.2e, want < %.0e", f.name, body.name, tc.std, rate, tc.limit)
				}
			}
		}
	}
}

// FuzzGeLUExact: any float32, by its bits, alone and inside a span, on
// every body.
func FuzzGeLUExact(f *testing.F) {
	for _, b := range geluEdgeBits() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		for _, fn := range geluFuncs {
			checkOneInput(t, fn, bits)
		}
	})
}

// checkOneInput runs every body of f on the input with the given bits,
// alone and in the middle of a span, against the reference.
func checkOneInput(t *testing.T, f transcendental, bits uint32) {
	x := math.Float32frombits(bits)
	span := []float32{1.5, x, -0.25}
	want := math.Float32bits(f.ref(x))
	for _, body := range f.bodies() {
		var one [1]float32
		var three [3]float32
		body.span(one[:], []float32{x})
		body.span(three[:], span)
		if g1, g3 := math.Float32bits(one[0]), math.Float32bits(three[1]); g1 != want || g3 != want {
			t.Fatalf("%s on %s (%v, bits %#08x) = %#08x alone, %#08x in a span, want %#08x", f.name, body.name, x, bits, g1, g3, want)
		}
	}
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
		processPool.GeLUForward(y, x)
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
		processPool.GeLUBackward(dX, dY, x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/element")
}
