package kernels

import (
	"math"
	"testing"
)

// FuzzSoftmax: for any row content, output must be a probability
// distribution and never NaN for finite inputs.
func FuzzSoftmax(f *testing.F) {
	f.Add(float32(0), float32(1), float32(-1), float32(1000))
	f.Fuzz(func(t *testing.T, a, b, c, d float32) {
		in := []float32{a, b, c, d}
		for _, v := range in {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return
			}
		}
		out := make([]float32, 4)
		processPool.Softmax(out, in, 1, 4)
		var sum float64
		for _, v := range out {
			if math.IsNaN(float64(v)) || v < 0 {
				t.Fatalf("softmax(%v) produced %v", in, out)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("softmax(%v) sums to %v", in, sum)
		}
	})
}

// FuzzGEMMTransposeConsistency: the four transpose paths must agree on
// small random matrices built from the fuzz input.
func FuzzGEMMTransposeConsistency(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(4), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, ma, na, ka uint8) {
		m, n, k := int(ma%6)+1, int(na%6)+1, int(ka%6)+1
		// Deterministic pseudo-random fill from the seed.
		next := func() float32 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return float32(int32(seed>>33%2000)-1000) / 1000
		}
		a := make([]float32, m*k)
		at := make([]float32, m*k) // A^T stored k×m
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				v := next()
				a[i*k+p] = v
				at[p*m+i] = v
			}
		}
		b := make([]float32, k*n)
		bt := make([]float32, k*n) // B^T stored n×k
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				v := next()
				b[p*n+j] = v
				bt[j*k+p] = v
			}
		}
		ref := make([]float32, m*n)
		GEMM(false, false, m, n, k, 1, a, b, 0, ref)
		for _, tc := range []struct {
			ta, tb bool
			av, bv []float32
		}{
			{true, false, at, b},
			{false, true, a, bt},
			{true, true, at, bt},
		} {
			got := make([]float32, m*n)
			GEMM(tc.ta, tc.tb, m, n, k, 1, tc.av, tc.bv, 0, got)
			for i := range ref {
				if math.Abs(float64(got[i]-ref[i])) > 1e-3 {
					t.Fatalf("tA=%v tB=%v diverges at %d: %v vs %v", tc.ta, tc.tb, i, got[i], ref[i])
				}
			}
		}
	})
}

// FuzzGEMMBlockedVsNaive: the cache-blocked packed path must agree with
// the naive reference for arbitrary shapes (including dims that are not
// multiples of the micro-tile), transpose combos, and alpha/beta. The
// seed corpus pins the odd/prime dims and scaling factors from the
// equivalence suite so `go test` replays them on every run.
func FuzzGEMMBlockedVsNaive(f *testing.F) {
	// Odd and prime dims around the micro-tile (6x16) and block (120/256)
	// boundaries; alphaSel/betaSel index {0, 1, -0.5}.
	f.Add(uint64(7), uint16(1), uint16(1), uint16(1), uint8(0), uint8(1), uint8(1))
	f.Add(uint64(11), uint16(3), uint16(17), uint16(63), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(13), uint16(63), uint16(129), uint16(17), uint8(2), uint8(2), uint8(1))
	f.Add(uint64(17), uint16(129), uint16(63), uint16(129), uint8(3), uint8(1), uint8(2))
	f.Add(uint64(19), uint16(121), uint16(257), uint16(31), uint8(2), uint8(0), uint8(1))
	f.Add(uint64(23), uint16(6), uint16(16), uint16(256), uint8(0), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, mr, nr, kr uint16, combo, alphaSel, betaSel uint8) {
		m, n, k := int(mr%160)+1, int(nr%160)+1, int(kr%160)+1
		transA, transB := combo&1 != 0, combo&2 != 0
		scales := []float32{0, 1, -0.5}
		alpha := scales[int(alphaSel)%len(scales)]
		beta := scales[int(betaSel)%len(scales)]
		next := func() float32 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return float32(int32(seed>>33%2000)-1000) / 1000
		}
		a := make([]float32, m*k)
		for i := range a {
			a[i] = next()
		}
		b := make([]float32, k*n)
		for i := range b {
			b[i] = next()
		}
		c0 := make([]float32, m*n)
		for i := range c0 {
			c0[i] = next()
		}
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		blockedFull(nil, transA, transB, m, n, k, alpha, a, b, beta, got)
		GEMMPathNaive.GEMM(nil, transA, transB, m, n, k, alpha, a, b, beta, want)
		if d := maxAbsDiff(got, want); d > tolFor(k) {
			t.Fatalf("tA=%v tB=%v m=%d n=%d k=%d alpha=%v beta=%v: max diff %v",
				transA, transB, m, n, k, alpha, beta, d)
		}
	})
}
