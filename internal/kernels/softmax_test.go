package kernels

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// expFull widens TestExpMatchesReferenceBits from every 257th float32 bit
// pattern to all 2^32 (about half a minute on two cores; check.sh's
// exhaustive leg passes it with -gelu-full).
var expFull = flag.Bool("exp-full", false, "sweep every float32 bit pattern in TestExpMatchesReferenceBits")

// softmaxRowScalar is softmaxRow as it stood before the exp went through
// the kernel table: the oracle the row must still equal bit for bit.
func softmaxRowScalar(out, in []float32) {
	maxV := in[0]
	for _, v := range in[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float32
	for i, v := range in {
		e := float32(math.Exp(float64(v - maxV)))
		out[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
}

// expEdgeBits adds where exp's float32 result changes kind: the
// rounding-to-zero boundary near -103.97, the body's clamp ends -105 and
// 89, the overflow to +Inf near 88.72, the first normal result near
// -87.34, the reduction's ±ln2/2, and the -1e9 of an attention mask.
func expEdgeBits() []uint32 {
	bits := append([]uint32(nil), edgeBits...)
	for _, x := range []float32{-105, -104, -103.972, -103.27893, -87.33655, 88.72284, 89,
		0.34657359, -0.34657359, 1, -1, -1e9, 1e9} {
		bits = appendNeighbours(bits, x, 4)
	}
	return bits
}

// TestExpMatchesReferenceBits: every exp body the host can run is
// float32(math.Exp(float64(x))) bit for bit on a strided sweep of the
// float32 space (all of it under -exp-full) and on the edge inputs at
// every span length, in place too; and expSpan, shift included, equals
// expScalar(x, m) on every kernel-table entry for shifts from the mask
// value to ±Inf and NaN.
func TestExpMatchesReferenceBits(t *testing.T) {
	stride := uint64(257)
	switch {
	case *expFull:
		stride = 1
	case raceEnabled || testing.Short():
		stride = 257 * 31
	}
	sweepBits(t, expFn, stride)
	checkEdges(t, expFn)

	x := normalSlice(35, 300, 20)
	for i, b := range expEdgeBits() {
		x[(7*i)%len(x)] = math.Float32frombits(b)
	}
	got := make([]float32, len(x))
	forEachKernel(t, "", func(t *testing.T) {
		for _, m := range []float32{0, -1e9, -3.5, 0.75, 88, 3e38, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
			expSpan(got, x, m)
			for i, v := range x {
				if g, w := math.Float32bits(got[i]), math.Float32bits(expScalar(v, m)); g != w {
					t.Fatalf("expSpan(x = %v, m = %v) = %#08x, want %#08x", v, m, g, w)
				}
			}
		}
	})
}

// TestExpFallbackRate keeps the vector exp honest, as TestGeLUFallbackRate
// does GeLU: on softmax-like inputs (score rows minus their maximum) the
// reference may run for under one element in ten thousand.
func TestExpFallbackRate(t *testing.T) {
	const rows, n = 1024, 1024
	for _, std := range []float32{1, 4, 30} {
		v := normalSlice(36, rows*n, std)
		for r := 0; r < rows; r++ {
			row := v[r*n : (r+1)*n]
			m := row[0]
			for _, x := range row {
				m = max(m, x)
			}
			for i := range row {
				row[i] -= m
			}
		}
		dst := make([]float32, len(v))
		for _, body := range expFn.bodies() {
			rate := float64(body.span(dst, v)) / float64(len(v))
			t.Logf("exp on %s, scores N(0, %v²) minus the row max: reference taken for %.1f elements per million", body.name, std, 1e6*rate)
			if rate >= 1e-4 {
				t.Errorf("exp on %s, scores N(0, %v²): fallback rate %.2e, want < 1e-4", body.name, std, rate)
			}
		}
	}
}

// FuzzExpExact: any float32 by its bits through every exp body, and any
// (x, m) pair through expSpan under the installed kernel, alone and in a
// span.
func FuzzExpExact(f *testing.F) {
	for i, b := range expEdgeBits() {
		f.Add(b, []uint32{0, 0xce6e6b28 /* -1e9 */, 0x42b00000 /* 88 */, 0x7f800000}[i%4])
	}
	f.Fuzz(func(t *testing.T, bits, mbits uint32) {
		checkOneInput(t, expFn, bits)
		x, m := math.Float32frombits(bits), math.Float32frombits(mbits)
		var one [1]float32
		three := []float32{-0.5, x, 2}
		expSpan(one[:], []float32{x}, m)
		expSpan(three, three, m)
		want := math.Float32bits(expScalar(x, m))
		if g1, g3 := math.Float32bits(one[0]), math.Float32bits(three[1]); g1 != want || g3 != want {
			t.Fatalf("expSpan(x = %v, m = %v) = %#08x alone, %#08x in a span, want %#08x", x, m, g1, g3, want)
		}
	})
}

// TestSoftmaxRowMatchesScalarOracle: the row softmax equals the old scalar
// row bit for bit on every kernel-table entry — lengths 1..300 and 8192,
// rows with masked (-1e9) keys, ±Inf and NaN first and later, all-equal
// and extreme values, out of place and in place.
func TestSoftmaxRowMatchesScalarOracle(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	lengths := []int{8192}
	for n := 1; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	kinds := []struct {
		name string
		set  func(r *tensor.RNG, row []float32)
	}{
		{"normal", func(*tensor.RNG, []float32) {}},
		{"masked keys", func(r *tensor.RNG, row []float32) {
			for i := range row {
				if r.Intn(3) == 0 {
					row[i] = -1e9
				}
			}
		}},
		{"+Inf first", func(_ *tensor.RNG, row []float32) { row[0] = inf }},
		{"+Inf later", func(_ *tensor.RNG, row []float32) { row[len(row)-1] = inf }},
		{"-Inf first", func(_ *tensor.RNG, row []float32) { row[0] = -inf }},
		{"-Inf later", func(_ *tensor.RNG, row []float32) { row[len(row)/2] = -inf }},
		{"NaN first", func(_ *tensor.RNG, row []float32) { row[0] = nan }},
		{"NaN later", func(_ *tensor.RNG, row []float32) { row[len(row)/2] = nan }},
		{"all equal", func(_ *tensor.RNG, row []float32) {
			for i := range row {
				row[i] = 0.3
			}
		}},
		{"extreme", func(r *tensor.RNG, row []float32) {
			for i := range row {
				row[i] *= 1e37
			}
		}},
	}
	forEachKernel(t, "", func(t *testing.T) {
		r := tensor.NewRNG(37)
		for _, n := range lengths {
			for _, kind := range kinds {
				in := normalSlice(r.Uint64(), n, 8)
				kind.set(r, in)
				want := make([]float32, n)
				softmaxRowScalar(want, in)
				got := make([]float32, n)
				softmaxRow(got, in)
				softmaxRow(in, in) // in place
				for i := range want {
					w := math.Float32bits(want[i])
					if g, a := math.Float32bits(got[i]), math.Float32bits(in[i]); g != w || a != w {
						t.Fatalf("%s row of %d, element %d: got %#08x, in place %#08x, want %#08x", kind.name, n, i, g, a, w)
					}
				}
			}
		}
	})
}

// BenchmarkSoftmax times the public row softmax at an attention-row
// length of 16 and 128 and a vocabulary-sized 8192 (64 Ki elements per
// call) and reports ns/element; run with -cpu 1 for the per-core figure.
func BenchmarkSoftmax(b *testing.B) {
	for _, n := range []int{16, 128, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := normalSlice(38, 1<<16, 3)
			y := make([]float32, len(x))
			rows := len(x) / n
			b.SetBytes(int64(8 * len(x)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				processPool.Softmax(y, x, rows, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/element")
		})
	}
}

// BenchmarkExp times the exp span alone (the installed body) on
// softmax-like inputs, ns/element.
func BenchmarkExp(b *testing.B) {
	x := normalSlice(39, 4096, 3)
	y := make([]float32, len(x))
	b.SetBytes(int64(8 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expSpan(y, x, 9)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/element")
}
