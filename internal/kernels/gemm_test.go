package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"demystbert/internal/tensor"
)

// refGEMM is a direct triple-loop reference used to validate the
// optimized kernels.
func refGEMM(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for p := 0; p < k; p++ {
				var av, bv float32
				if transA {
					av = a[p*m+i]
				} else {
					av = a[i*k+p]
				}
				if transB {
					bv = b[j*k+p]
				} else {
					bv = b[p*n+j]
				}
				sum += float64(av) * float64(bv)
			}
			c[i*n+j] = float32(float64(alpha)*sum) + beta*c[i*n+j]
		}
	}
}

func randSlice(r *tensor.RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = r.Float32()*2 - 1
	}
	return s
}

// maxAbsDiff is the largest |a[i] − b[i]|, and +Inf where only one of
// the two is NaN.
func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if (a[i] != a[i]) != (b[i] != b[i]) {
			return math.Inf(1)
		}
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestGEMMAllTransposeCombos(t *testing.T) {
	r := tensor.NewRNG(1)
	for _, tc := range []struct{ ta, tb bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {16, 16, 16}, {33, 17, 9}, {5, 64, 3}} {
			m, n, k := dims[0], dims[1], dims[2]
			a := randSlice(r, m*k)
			b := randSlice(r, k*n)
			got := randSlice(r, m*n)
			want := append([]float32(nil), got...)
			GEMM(tc.ta, tc.tb, m, n, k, 1.5, a, b, 0.5, got)
			refGEMM(tc.ta, tc.tb, m, n, k, 1.5, a, b, 0.5, want)
			if d := maxAbsDiff(got, want); d > 1e-4 {
				t.Errorf("GEMM(tA=%v tB=%v %dx%dx%d) max diff %v", tc.ta, tc.tb, m, n, k, d)
			}
		}
	}
}

func TestGEMMIdentity(t *testing.T) {
	const n = 8
	r := tensor.NewRNG(2)
	a := randSlice(r, n*n)
	id := make([]float32, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	c := make([]float32, n*n)
	GEMM(false, false, n, n, n, 1, a, id, 0, c)
	if d := maxAbsDiff(c, a); d > 1e-6 {
		t.Fatalf("A·I differs from A by %v", d)
	}
}

func TestGEMMBetaOne(t *testing.T) {
	m, n, k := 4, 4, 4
	r := tensor.NewRNG(3)
	a, b := randSlice(r, m*k), randSlice(r, k*n)
	c := make([]float32, m*n)
	GEMM(false, false, m, n, k, 1, a, b, 0, c)
	first := append([]float32(nil), c...)
	GEMM(false, false, m, n, k, 1, a, b, 1, c) // accumulate once more
	for i := range c {
		if math.Abs(float64(c[i]-2*first[i])) > 1e-4 {
			t.Fatalf("beta=1 accumulation wrong at %d: %v vs %v", i, c[i], 2*first[i])
		}
	}
}

func TestGEMMAlphaZeroOnlyScales(t *testing.T) {
	m, n, k := 3, 3, 3
	a, b := make([]float32, m*k), make([]float32, k*n)
	c := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	GEMM(false, false, m, n, k, 0, a, b, 2, c)
	for i, v := range c {
		if v != float32(2*(i+1)) {
			t.Fatalf("alpha=0 beta=2: c[%d] = %v", i, v)
		}
	}
}

func TestGEMMZeroDims(t *testing.T) {
	// m==0 and n==0 must be no-ops; k==0 must only apply beta.
	GEMM(false, false, 0, 5, 5, 1, nil, make([]float32, 25), 0, nil)
	c := []float32{3, 3}
	GEMM(false, false, 1, 2, 0, 1, nil, nil, 0, c)
	if c[0] != 0 || c[1] != 0 {
		t.Fatal("k=0 beta=0 must zero C")
	}
}

func TestGEMMBufferTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersized buffer did not panic")
		}
	}()
	GEMM(false, false, 4, 4, 4, 1, make([]float32, 15), make([]float32, 16), 0, make([]float32, 16))
}

func TestGEMMNegativeDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dim did not panic")
		}
	}()
	GEMM(false, false, -1, 4, 4, 1, nil, nil, 0, nil)
}

func TestGEMMSingleWorkerMatchesParallel(t *testing.T) {
	r := tensor.NewRNG(4)
	m, n, k := 37, 29, 23
	a, b := randSlice(r, m*k), randSlice(r, k*n)
	par := make([]float32, m*n)
	ser := make([]float32, m*n)
	GEMM(false, false, m, n, k, 1, a, b, 0, par)
	GEMMPathAuto.GEMM(poolOf(1), false, false, m, n, k, 1, a, b, 0, ser)
	if d := maxAbsDiff(par, ser); d > 1e-5 {
		t.Fatalf("parallel vs serial diff %v", d)
	}
}

// Below smallGEMMFlops the auto route runs the naive loops serially and
// GEMMPathNaive runs them row-parallel; both sum every element over p in
// order, so they agree bit for bit at any pool width.
func TestGEMMSmallAutoBitwiseNaive(t *testing.T) {
	r := tensor.NewRNG(5)
	m, n, k := 40, 20, 19
	if 2*m*n*k >= smallGEMMFlops || m*n*k < minForkWork {
		t.Fatalf("%dx%dx%d must be below the naive threshold and large enough to fork", m, n, k)
	}
	a, b, cInit := randSlice(r, m*k), randSlice(r, k*n), randSlice(r, m*n)
	for _, w := range []int{1, 2} {
		pool := poolOf(w)
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				got := append([]float32(nil), cInit...)
				want := append([]float32(nil), cInit...)
				GEMMPathAuto.GEMM(pool, ta, tb, m, n, k, 0.75, a, b, 0.5, got)
				GEMMPathNaive.GEMM(pool, ta, tb, m, n, k, 0.75, a, b, 0.5, want)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("workers=%d tA=%v tB=%v: GEMM[%d] = %v, GEMMPathNaive %v", w, ta, tb, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Property: (A·B)^T == B^T·A^T, expressed through the transpose flags.
func TestGEMMTransposeIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m, n, k := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a, b := randSlice(r, m*k), randSlice(r, k*n)
		// C1 = A·B  (m×n)
		c1 := make([]float32, m*n)
		GEMM(false, false, m, n, k, 1, a, b, 0, c1)
		// C2 = op(B)·op(A) with both transposed = (A·B)^T  (n×m)
		c2 := make([]float32, n*m)
		GEMM(true, true, n, m, k, 1, b, a, 0, c2)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(float64(c1[i*n+j]-c2[j*m+i])) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: GEMM is linear in alpha.
func TestGEMMAlphaLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m, n, k := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a, b := randSlice(r, m*k), randSlice(r, k*n)
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		GEMM(false, false, m, n, k, 1, a, b, 0, c1)
		GEMM(false, false, m, n, k, 2.5, a, b, 0, c2)
		for i := range c1 {
			if math.Abs(float64(c2[i]-2.5*c1[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedGEMMMatchesLoop(t *testing.T) {
	r := tensor.NewRNG(5)
	batch, m, n, k := 6, 7, 5, 9
	a := randSlice(r, batch*m*k)
	b := randSlice(r, batch*k*n)
	got := make([]float32, batch*m*n)
	want := make([]float32, batch*m*n)
	BatchedGEMM(batch, false, true, m, n, k, 1, a, m*k, b, k*n, 0, got, m*n)
	for i := 0; i < batch; i++ {
		refGEMM(false, true, m, n, k, 1, a[i*m*k:], b[i*k*n:], 0, want[i*m*n:(i+1)*m*n])
	}
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("BatchedGEMM max diff %v", d)
	}
}

func TestBatchedGEMMZeroBatch(t *testing.T) {
	BatchedGEMM(0, false, false, 4, 4, 4, 1, nil, 16, nil, 16, 0, nil, 16)
}

func TestBatchedGEMMBadStridePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad stride did not panic")
		}
	}()
	BatchedGEMM(2, false, false, 4, 4, 4, 1, make([]float32, 32), 8, make([]float32, 32), 16, 0, make([]float32, 32), 16)
}

func TestDotAndAxpy(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5}
	y := []float32{5, 4, 3, 2, 1}
	if got := dot(x, y); got != 35 {
		t.Fatalf("dot = %v, want 35", got)
	}
	dst := []float32{1, 1, 1, 1, 1}
	axpy(2, x, dst)
	want := []float32{3, 5, 7, 9, 11}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("axpy[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestCostFormulas(t *testing.T) {
	if GEMMFLOPs(2, 3, 4) != 48 {
		t.Fatal("GEMMFLOPs(2,3,4) != 48")
	}
	if GEMMBytes(2, 3, 4, 4) != 4*(8+12+6) {
		t.Fatal("GEMMBytes wrong")
	}
	if EWFLOPs(10, 3) != 30 {
		t.Fatal("EWFLOPs wrong")
	}
	if EWBytes(10, 2, 1, 4) != 120 {
		t.Fatal("EWBytes wrong")
	}
}
