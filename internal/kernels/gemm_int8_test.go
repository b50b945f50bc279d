package kernels

import (
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// refGEMMInt8 recomputes the quantized product with plain nested loops
// from the packed operands: an independent oracle for the panel layouts
// and the zero-point correction. Epilogue handling reuses refEpilogue.
func refGEMMInt8(m, n, k int, a []float32, pb *PackedBInt8, c []float32) {
	kg := pb.kg
	for i := 0; i < m; i++ {
		row := a[i*k : (i+1)*k]
		var maxAbs float32
		for _, v := range row {
			if x := abs32(v); x > maxAbs {
				maxAbs = x
			}
		}
		var sa, inv float32
		if maxAbs > 0 {
			sa = maxAbs / int8ActMax
			inv = int8ActMax / maxAbs
		}
		qa := make([]int32, kg*int8KGroup)
		for d := range qa {
			qa[d] = int8ActZero
		}
		if maxAbs > 0 {
			// Same round-half-up-after-shift expression as quantU8 in the
			// engine's quantizer.
			for d, v := range row {
				q := int32(v*inv + (float32(int8ActZero) + 0.5))
				if q < 0 {
					q = 0
				} else if q > 255 {
					q = 255
				}
				qa[d] = q
			}
		}
		// Depth padding of the reference activations must be the raw zero
		// byte (0), matching the packed panels — not the zero point.
		for d := k; d < kg*int8KGroup; d++ {
			qa[d] = 0
		}
		for j := 0; j < n; j++ {
			p, lane := j/int8NR, j%int8NR
			base := p * kg * int8NR * int8KGroup
			var acc int32
			for d := 0; d < kg*int8KGroup; d++ {
				g, sub := d/int8KGroup, d%int8KGroup
				acc += qa[d] * int32(pb.qw[base+g*int8NR*int8KGroup+lane*int8KGroup+sub])
			}
			c[i*n+j] = sa * pb.scales[j] * float32(acc-int8ActZero*pb.colSum[j])
		}
	}
}

// TestInt8KernelAsmMatchesGo cross-checks every table entry's int8
// micro-kernel against the portable Go one bit-for-bit on
// quantizer-realistic operands.
func TestInt8KernelAsmMatchesGo(t *testing.T) {
	forEachKernel(t, "", int8KernelMatchesGo)
}

func int8KernelMatchesGo(t *testing.T) {
	r := tensor.NewRNG(50)
	for _, kg := range []int{1, 2, 3, 7, 64, 193} {
		a := make([]uint8, kg*int8MR*int8KGroup)
		b := make([]int8, kg*int8NR*int8KGroup)
		for i := range a {
			a[i] = uint8(1 + r.Intn(255)) // quantized activations: [1,255]
		}
		for i := range b {
			b[i] = int8(r.Intn(2*int8WeightMax+1) - int8WeightMax) // [-63,63]
		}
		var accAsm, accGo [int8MR * int8NR]int32
		int8Kernel(kg, a, b, &accAsm)
		gemmInt8Kernel4x16Go(kg, a, b, &accGo)
		if accAsm != accGo {
			t.Fatalf("kg=%d: asm and Go kernels disagree\nasm: %v\ngo:  %v", kg, accAsm, accGo)
		}
	}
}

// TestGEMMInt8MatchesQuantizedReference pins the engine (parallel panels,
// asm kernel, write-back) against the serial layout-independent oracle —
// integer accumulation makes this an exact, not tolerance, comparison.
func TestGEMMInt8MatchesQuantizedReference(t *testing.T) {
	r := tensor.NewRNG(51)
	for _, sh := range [][3]int{
		{1, 1, 1}, {3, 5, 7}, {4, 16, 8}, {5, 17, 33},
		{64, 64, 64}, {67, 96, 130}, {13, 200, 48},
	} {
		m, n, k := sh[0], sh[1], sh[2]
		a := randSlice(r, m*k)
		b := randSlice(r, k*n)
		for _, transB := range []bool{false, true} {
			w := b
			if transB { // store as N×K holding the same op(B)
				w = make([]float32, n*k)
				for d := 0; d < k; d++ {
					for j := 0; j < n; j++ {
						w[j*k+d] = b[d*n+j]
					}
				}
			}
			pb := PackWeightInt8(transB, n, k, w)
			got := make([]float32, m*n)
			GEMMInt8(m, n, k, a, pb, nil, got)
			want := make([]float32, m*n)
			refGEMMInt8(m, n, k, a, pb, want)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("transB=%v %dx%dx%d: engine diverges from reference at %d: %v vs %v",
						transB, m, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGEMMInt8ApproximatesF32 bounds the quantization error against the
// float32 product on unit-scale data: with per-row 8-bit activations and
// per-column 7-bit weights the worst-case relative error per element is
// well under 2%·k-growth; empirically the max abs error on [-1,1] data
// stays below ~0.04 for BERT-sized depths.
func TestGEMMInt8ApproximatesF32(t *testing.T) {
	r := tensor.NewRNG(52)
	for _, sh := range [][3]int{{16, 64, 64}, {32, 128, 256}, {8, 96, 768}} {
		m, n, k := sh[0], sh[1], sh[2]
		a := randSlice(r, m*k)
		b := randSlice(r, k*n)
		pb := PackWeightInt8(false, n, k, b)
		got := make([]float32, m*n)
		GEMMInt8(m, n, k, a, pb, nil, got)
		want := make([]float32, m*n)
		refGEMM(false, false, m, n, k, 1, a, b, 0, want)
		// Scale-aware bound: quantization error grows with sqrt(k) times
		// the operand scales; 0.016·sqrt(k) leaves ~5 sigma of headroom
		// for uniform [-1,1] data while staying ~2% of the |result| scale
		// (which itself grows as sqrt(k/3)).
		tol := 0.016 * math.Sqrt(float64(k))
		if d := maxAbsDiff(got, want); d > tol {
			t.Errorf("%dx%dx%d: int8 vs f32 max abs err %v > %v", m, n, k, d, tol)
		}
	}
}

// TestGEMMInt8EpiloguesMatchReference checks each fused tail against the
// quantized-product oracle followed by the reference epilogue sequence.
func TestGEMMInt8EpiloguesMatchReference(t *testing.T) {
	r := tensor.NewRNG(53)
	m, n, k := 21, 49, 40
	a := randSlice(r, m*k)
	b := randSlice(r, k*n)
	pb := PackWeightInt8(false, n, k, b)
	for _, kind := range epilogueKinds {
		ep := makeEpilogue(r, kind, m, n, true)
		got := make([]float32, m*n)
		GEMMInt8(m, n, k, a, pb, ep, got)

		want := make([]float32, m*n)
		refGEMMInt8(m, n, k, a, pb, want)
		wep := cloneEpilogue(ep, m, n)
		refEpilogue(wep, want, m, n)

		if d := maxAbsDiff(got, want); d > 1e-5 {
			t.Errorf("%s: int8 epilogue max diff %v", kind, d)
		}
		if ep.X != nil {
			if d := maxAbsDiff(ep.X, wep.X); d > 1e-5 {
				t.Errorf("%s: X save max diff %v", kind, d)
			}
		}
		if ep.Mean != nil {
			if d := maxAbsDiff(ep.Mean, wep.Mean); d > 1e-5 {
				t.Errorf("%s: Mean max diff %v", kind, d)
			}
		}
	}
}

// TestGEMMInt8Deterministic: fixed-order integer accumulation must give
// bit-identical results across worker counts.
func TestGEMMInt8Deterministic(t *testing.T) {
	r := tensor.NewRNG(54)
	m, n, k := 37, 80, 96
	a := randSlice(r, m*k)
	pb := PackWeightInt8(false, n, k, randSlice(r, k*n))
	ep := makeEpilogue(r, EpilogueBiasResidualLayerNorm, m, n, false)
	ref := make([]float32, m*n)
	old := SetMaxWorkers(1)
	GEMMInt8(m, n, k, a, pb, ep, ref)
	for _, w := range []int{2, 5, 8} {
		SetMaxWorkers(w)
		got := make([]float32, m*n)
		GEMMInt8(m, n, k, a, pb, ep, got)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
				t.Fatalf("workers=%d diverges from workers=1 at %d", w, i)
			}
		}
	}
	SetMaxWorkers(old)
}

// TestGEMMInt8EdgeCases: zero rows in A (sa=0 must yield exact zero
// contributions), k==0 quick return through the epilogue, zero dims.
func TestGEMMInt8EdgeCases(t *testing.T) {
	r := tensor.NewRNG(55)
	m, n, k := 5, 9, 12
	a := randSlice(r, m*k)
	for d := 0; d < k; d++ {
		a[2*k+d] = 0 // all-zero activation row
	}
	pb := PackWeightInt8(false, n, k, randSlice(r, k*n))
	c := make([]float32, m*n)
	GEMMInt8(m, n, k, a, pb, nil, c)
	for j := 0; j < n; j++ {
		if c[2*n+j] != 0 {
			t.Fatalf("zero activation row produced %v at col %d", c[2*n+j], j)
		}
	}

	// k==0: product is zero, epilogue still defines the output.
	bias := randSlice(r, n)
	pb0 := PackWeightInt8(false, n, 0, nil)
	c0 := randSlice(r, m*n)
	GEMMInt8(m, n, 0, nil, pb0, &Epilogue{Kind: EpilogueBias, Bias: bias}, c0)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if c0[i*n+j] != bias[j] {
				t.Fatalf("k=0: c[%d][%d] = %v, want bias %v", i, j, c0[i*n+j], bias[j])
			}
		}
	}

	// Zero output dims are no-ops.
	GEMMInt8(0, n, k, nil, pb, nil, nil)
	pbn := PackWeightInt8(false, 0, k, make([]float32, 0))
	GEMMInt8(m, 0, k, a, pbn, nil, nil)
}

// TestGEMMInt8WeightClampRange: packed weights must stay within ±63 so
// the VPMADDUBSW pair sums cannot saturate i16 (255·63·2 < 2^15).
func TestGEMMInt8WeightClampRange(t *testing.T) {
	r := tensor.NewRNG(56)
	n, k := 33, 50
	b := randSlice(r, k*n)
	for i := range b {
		b[i] *= 1e3 // large dynamic range still quantizes into the clamp
	}
	pb := PackWeightInt8(false, n, k, b)
	for i, q := range pb.qw {
		if q > int8WeightMax || q < -int8WeightMax {
			t.Fatalf("packed weight %d out of clamp range: %d", i, q)
		}
	}
}

// TestPackCacheInt8 exercises hit, generation rebuild, shape miss, and
// Invalidate on the int8 slots of the generation-counted cache.
func TestPackCacheInt8(t *testing.T) {
	r := tensor.NewRNG(57)
	n, k := 24, 16
	b := randSlice(r, k*n)
	var pc PackCache
	p1 := pc.GetInt8(false, n, k, b, 1)
	if p2 := pc.GetInt8(false, n, k, b, 1); p2 != p1 {
		t.Fatal("same generation did not hit the cache")
	}
	b[0] += 1
	p3 := pc.GetInt8(false, n, k, b, 2)
	if p3 == p1 {
		t.Fatal("generation bump did not rebuild the pack")
	}
	if p4 := pc.GetInt8(false, n+int8NR, k, append(b, make([]float32, k*int8NR)...), 2); p4.n != n+int8NR {
		t.Fatal("shape change did not rebuild the pack")
	}
	pc.Invalidate()
	if p5 := pc.GetInt8(false, n, k, b, 2); p5 == p3 {
		t.Fatal("Invalidate did not drop the int8 slots")
	}
	// f32 and int8 slots are independent.
	if pf := pc.Get(false, n, k, b, 2); pf == nil {
		t.Fatal("f32 slot unusable after int8 traffic")
	}
}

// TestGEMMInt8ZeroAlloc: quantize + compute must be allocation-free in
// steady state (scratch pools and pooled region states).
func TestGEMMInt8ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	r := tensor.NewRNG(58)
	m, n, k := 128, 128, 128
	a := randSlice(r, m*k)
	pb := PackWeightInt8(false, n, k, randSlice(r, k*n))
	ep := makeEpilogue(r, EpilogueBias, m, n, false)
	c := make([]float32, m*n)
	old := SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	forEachKernel(t, "", func(t *testing.T) {
		GEMMInt8(m, n, k, a, pb, ep, c) // warm pools
		if avg := testing.AllocsPerRun(10, func() {
			GEMMInt8(m, n, k, a, pb, ep, c)
		}); avg != 0 {
			t.Errorf("GEMMInt8 allocates %v per op in steady state, want 0", avg)
		}
	})
}
