package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", x.Rank())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestOfWrapsWithoutCopy(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	x := Of(d, 2, 3)
	d[0] = 42
	if x.At(0, 0) != 42 {
		t.Fatal("Of must wrap the slice, not copy it")
	}
}

func TestOfLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Of with mismatched length")
	Of([]float32{1, 2, 3}, 2, 2)
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer expectPanic(t, "New with negative dim")
	New(2, -1)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	x.Set(7.5, 2, 1, 3)
	if got := x.At(2, 1, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset: ((2*4)+1)*5 + 3 = 48.
	if x.Data()[48] != 7.5 {
		t.Fatal("Set did not write the row-major offset")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer expectPanic(t, "At out of range")
	x.At(2, 0)
}

func TestAtWrongRankPanics(t *testing.T) {
	x := New(2, 2)
	defer expectPanic(t, "At with wrong rank")
	x.At(1)
}

func TestCloneIsDeep(t *testing.T) {
	x := New(2, 2)
	x.Fill(1)
	y := x.Clone()
	y.Set(9, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must be a deep copy")
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	x, y := New(2, 3), New(3, 2)
	defer expectPanic(t, "CopyFrom shape mismatch")
	x.CopyFrom(y)
}

func TestFillAndZero(t *testing.T) {
	x := New(10)
	x.Fill(2.5)
	for _, v := range x.Data() {
		if v != 2.5 {
			t.Fatal("Fill failed")
		}
	}
	x.Zero()
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestRowView(t *testing.T) {
	x := Of([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := x.Row(1)
	if len(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[0] = 40
	if x.At(1, 0) != 40 {
		t.Fatal("Row must be a view")
	}
}

func TestBatchView(t *testing.T) {
	x := New(2, 3, 4)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	b := x.Batch(1)
	if b.Rank() != 2 || b.Dim(0) != 3 || b.Dim(1) != 4 {
		t.Fatalf("Batch shape = %v", b.Shape())
	}
	if b.At(0, 0) != 12 {
		t.Fatalf("Batch(1)[0,0] = %v, want 12", b.At(0, 0))
	}
	b.Set(99, 0, 0)
	if x.At(1, 0, 0) != 99 {
		t.Fatal("Batch must be a view")
	}
}

func TestBatchOutOfRangePanics(t *testing.T) {
	x := New(2, 3)
	defer expectPanic(t, "Batch out of range")
	x.Batch(2)
}

func TestDimNegativeIndex(t *testing.T) {
	x := New(2, 3, 4)
	if x.Dim(-1) != 4 || x.Dim(-3) != 2 {
		t.Fatal("negative Dim index failed")
	}
}

func TestSameShape(t *testing.T) {
	if !SameShape(New(2, 3), New(2, 3)) {
		t.Fatal("identical shapes reported different")
	}
	if SameShape(New(2, 3), New(3, 2)) {
		t.Fatal("different shapes reported same")
	}
	if SameShape(New(2, 3), New(2, 3, 1)) {
		t.Fatal("different ranks reported same")
	}
}

func TestString(t *testing.T) {
	if s := New(2, 3).String(); s != "Tensor[2 3]" {
		t.Fatalf("String = %q", s)
	}
}

// Property: row-major addressing matches manual stride computation.
func TestAddressingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		d0, d1, d2 := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		x := New(d0, d1, d2)
		i, j, k := r.Intn(d0), r.Intn(d1), r.Intn(d2)
		x.Set(1.25, i, j, k)
		return x.Data()[(i*d1+j)*d2+k] == 1.25
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

// TestRNGSkipEqualsDraws pins the jump-ahead to the stream: Skip(n) leaves
// the state n calls of Uint64 would, across the table's bit boundaries, and
// skips compose.
func TestRNGSkipEqualsDraws(t *testing.T) {
	for _, n := range []uint64{0, 1, 63, 64, 65, 4095, 1<<20 + 3} {
		want := NewRNG(12345)
		for range n {
			want.Uint64()
		}
		got := NewRNG(12345)
		got.Skip(n)
		if got.State() != want.State() {
			t.Errorf("Skip(%d): state %#x, want %#x", n, got.State(), want.State())
		}
	}
	for _, ab := range [][2]uint64{{0, 5}, {1, 1}, {63, 65}, {4095, 1 << 20}, {1<<40 + 7, 1<<63 + 1}} {
		split, whole := NewRNG(99), NewRNG(99)
		split.Skip(ab[0])
		split.Skip(ab[1])
		whole.Skip(ab[0] + ab[1])
		if split.State() != whole.State() {
			t.Errorf("Skip(%d); Skip(%d) = %#x, Skip(%d) = %#x", ab[0], ab[1], split.State(), ab[0]+ab[1], whole.State())
		}
	}
	if r := NewRNG(7); NewRNG(r.State()).Uint64() != r.Uint64() {
		t.Error("NewRNG(r.State()) does not continue r's stream")
	}
}

func TestRNGZeroSeedIsValid(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG appears stuck")
	}
}

func TestFloat32InUnitInterval(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 = %v outside [0,1)", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Intn(5) only produced %d distinct values", len(seen))
	}
}

func TestIntnNonPositivePanics(t *testing.T) {
	r := NewRNG(1)
	defer expectPanic(t, "Intn(0)")
	r.Intn(0)
}

func TestNormFloat32Moments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(r.NormFloat32())
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestFillUniformRange(t *testing.T) {
	x := New(1000)
	x.FillUniform(NewRNG(2), -3, 5)
	for _, v := range x.Data() {
		if v < -3 || v >= 5 {
			t.Fatalf("uniform fill out of range: %v", v)
		}
	}
}

func TestFillXavierBound(t *testing.T) {
	x := New(64, 64)
	x.FillXavier(NewRNG(4), 64, 64)
	limit := float32(math.Sqrt(6.0 / 128.0))
	for _, v := range x.Data() {
		if v < -limit || v > limit {
			t.Fatalf("xavier value %v outside ±%v", v, limit)
		}
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s did not panic", what)
	}
}
