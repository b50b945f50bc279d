package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"demystbert/internal/tensor"
)

func TestAddMulScale(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	dst := make([]float32, 3)
	Add(dst, a, b)
	if dst[0] != 5 || dst[2] != 9 {
		t.Fatalf("Add = %v", dst)
	}
	processPool.Mul(dst, a, b)
	if dst[0] != 4 || dst[2] != 18 {
		t.Fatalf("Mul = %v", dst)
	}
	processPool.Scale(dst, a, 3)
	if dst[0] != 3 || dst[2] != 9 {
		t.Fatalf("Scale = %v", dst)
	}
	processPool.AccumulateInto(dst, a)
	if dst[0] != 4 || dst[2] != 12 {
		t.Fatalf("AccumulateInto = %v", dst)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Add(make([]float32, 3), make([]float32, 3), make([]float32, 4))
}

func TestAddBiasAndGrad(t *testing.T) {
	m, n := 3, 4
	x := make([]float32, m*n)
	bias := []float32{1, 2, 3, 4}
	processPool.AddBias(x, bias, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if x[i*n+j] != bias[j] {
				t.Fatalf("AddBias[%d,%d] = %v", i, j, x[i*n+j])
			}
		}
	}
	dBias := make([]float32, n)
	processPool.BiasGrad(dBias, x, m, n)
	for j := 0; j < n; j++ {
		if dBias[j] != float32(m)*bias[j] {
			t.Fatalf("BiasGrad[%d] = %v, want %v", j, dBias[j], float32(m)*bias[j])
		}
	}
	// BiasGrad must accumulate.
	processPool.BiasGrad(dBias, x, m, n)
	if dBias[0] != 2*float32(m)*bias[0] {
		t.Fatal("BiasGrad must accumulate into dBias")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := tensor.NewRNG(1)
	rows, n := 8, 16
	x := randSlice(r, rows*n)
	y := make([]float32, rows*n)
	processPool.Softmax(y, x, rows, n)
	for row := 0; row < rows; row++ {
		var s float64
		for j := 0; j < n; j++ {
			v := y[row*n+j]
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", row, s)
		}
	}
}

// Property: softmax is invariant to adding a constant to a row.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 2 + r.Intn(16)
		x := randSlice(r, n)
		shifted := make([]float32, n)
		c := r.Float32()*10 - 5
		for i := range x {
			shifted[i] = x[i] + c
		}
		y1 := make([]float32, n)
		y2 := make([]float32, n)
		processPool.Softmax(y1, x, 1, n)
		processPool.Softmax(y2, shifted, 1, n)
		return maxAbsDiff(y1, y2) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	y := make([]float32, 3)
	processPool.Softmax(y, []float32{1000, 1000, 1000}, 1, 3)
	for _, v := range y {
		if math.Abs(float64(v)-1.0/3) > 1e-5 {
			t.Fatalf("softmax of equal large values = %v", y)
		}
	}
}

// Property: the softmax-gradient row body matches finite differences of
// the softmax.
func TestSoftmaxGradFiniteDifference(t *testing.T) {
	r := tensor.NewRNG(7)
	n := 6
	x := randSlice(r, n)
	dY := randSlice(r, n)
	y := make([]float32, n)
	processPool.Softmax(y, x, 1, n)
	dX := make([]float32, n)
	softmaxGradRows(dX, dY, y, 0, 1, n)

	const eps = 1e-3
	for i := 0; i < n; i++ {
		xp := append([]float32(nil), x...)
		xm := append([]float32(nil), x...)
		xp[i] += eps
		xm[i] -= eps
		yp := make([]float32, n)
		ym := make([]float32, n)
		processPool.Softmax(yp, xp, 1, n)
		processPool.Softmax(ym, xm, 1, n)
		var num float64
		for j := 0; j < n; j++ {
			num += float64(dY[j]) * float64(yp[j]-ym[j]) / (2 * eps)
		}
		if math.Abs(num-float64(dX[i])) > 1e-2 {
			t.Fatalf("softmax grad[%d]: analytic %v vs numeric %v", i, dX[i], num)
		}
	}
}

func TestLayerNormForwardStatistics(t *testing.T) {
	r := tensor.NewRNG(2)
	rows, n := 5, 32
	x := randSlice(r, rows*n)
	gamma := make([]float32, n)
	beta := make([]float32, n)
	for i := range gamma {
		gamma[i] = 1
	}
	y := make([]float32, rows*n)
	mean := make([]float32, rows)
	invStd := make([]float32, rows)
	processPool.LayerNormForward(y, x, gamma, beta, mean, invStd, rows, n, 1e-12)
	for row := 0; row < rows; row++ {
		var s, sq float64
		for j := 0; j < n; j++ {
			v := float64(y[row*n+j])
			s += v
			sq += v * v
		}
		m := s / float64(n)
		variance := sq/float64(n) - m*m
		if math.Abs(m) > 1e-4 {
			t.Fatalf("row %d mean %v, want ~0", row, m)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("row %d variance %v, want ~1", row, variance)
		}
	}
}

func TestLayerNormAffine(t *testing.T) {
	rows, n := 1, 4
	x := []float32{1, 2, 3, 4}
	gamma := []float32{2, 2, 2, 2}
	beta := []float32{10, 10, 10, 10}
	y := make([]float32, n)
	mean := make([]float32, rows)
	invStd := make([]float32, rows)
	processPool.LayerNormForward(y, x, gamma, beta, mean, invStd, rows, n, 1e-12)
	var s float64
	for _, v := range y {
		s += float64(v)
	}
	// gamma scales a zero-mean signal; mean of y must equal mean of beta.
	if math.Abs(s/float64(n)-10) > 1e-4 {
		t.Fatalf("affine layer norm mean %v, want 10", s/float64(n))
	}
}

func TestLayerNormBackwardFiniteDifference(t *testing.T) {
	r := tensor.NewRNG(3)
	rows, n := 3, 8
	x := randSlice(r, rows*n)
	gamma := randSlice(r, n)
	beta := randSlice(r, n)
	dY := randSlice(r, rows*n)

	forward := func(xv, gv, bv []float32) []float32 {
		y := make([]float32, rows*n)
		mean := make([]float32, rows)
		invStd := make([]float32, rows)
		processPool.LayerNormForward(y, xv, gv, bv, mean, invStd, rows, n, 1e-5)
		return y
	}
	loss := func(xv, gv, bv []float32) float64 {
		y := forward(xv, gv, bv)
		var l float64
		for i := range y {
			l += float64(dY[i]) * float64(y[i])
		}
		return l
	}

	y := make([]float32, rows*n)
	mean := make([]float32, rows)
	invStd := make([]float32, rows)
	processPool.LayerNormForward(y, x, gamma, beta, mean, invStd, rows, n, 1e-5)
	dX := make([]float32, rows*n)
	dGamma := make([]float32, n)
	dBeta := make([]float32, n)
	processPool.LayerNormBackward(dX, dGamma, dBeta, dY, x, gamma, mean, invStd, rows, n)

	const eps = 1e-2
	check := func(name string, buf []float32, grad []float32, idx int) {
		t.Helper()
		orig := buf[idx]
		buf[idx] = orig + eps
		lp := loss(x, gamma, beta)
		buf[idx] = orig - eps
		lm := loss(x, gamma, beta)
		buf[idx] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad[idx])) > 2e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, idx, grad[idx], num)
		}
	}
	for _, idx := range []int{0, 5, rows*n - 1} {
		check("dX", x, dX, idx)
	}
	for _, idx := range []int{0, n - 1} {
		check("dGamma", gamma, dGamma, idx)
		check("dBeta", beta, dBeta, idx)
	}
}

func TestGeLUKnownValues(t *testing.T) {
	x := []float32{0, 1, -1, 3}
	y := make([]float32, len(x))
	processPool.GeLUForward(y, x)
	// GELU(0)=0; GELU(1)=0.841345; GELU(-1)=-0.158655; GELU(3)≈2.99595.
	want := []float64{0, 0.8413447, -0.1586553, 2.9959502}
	for i := range want {
		if math.Abs(float64(y[i])-want[i]) > 1e-5 {
			t.Fatalf("GeLU(%v) = %v, want %v", x[i], y[i], want[i])
		}
	}
}

func TestGeLUBackwardFiniteDifference(t *testing.T) {
	r := tensor.NewRNG(4)
	n := 32
	x := randSlice(r, n)
	dY := randSlice(r, n)
	dX := make([]float32, n)
	processPool.GeLUBackward(dX, dY, x)
	const eps = 1e-3
	for i := 0; i < n; i += 5 {
		xp, xm := x[i]+eps, x[i]-eps
		yp := make([]float32, 1)
		ym := make([]float32, 1)
		processPool.GeLUForward(yp, []float32{xp})
		processPool.GeLUForward(ym, []float32{xm})
		num := float64(dY[i]) * float64(yp[0]-ym[0]) / (2 * eps)
		if math.Abs(num-float64(dX[i])) > 1e-3 {
			t.Fatalf("GeLU grad[%d]: analytic %v vs numeric %v", i, dX[i], num)
		}
	}
}

// Property: GeLU(x) is bounded between min(0, x) and max(0, x).
func TestGeLUBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		x := []float32{r.Float32()*20 - 10}
		y := make([]float32, 1)
		processPool.GeLUForward(y, x)
		lo, hi := float32(math.Min(0, float64(x[0]))), float32(math.Max(0, float64(x[0])))
		return y[0] >= lo-1e-6 && y[0] <= hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDropoutMaskStatistics(t *testing.T) {
	const n = 100000
	const p = 0.3
	mask := make([]float32, n)
	processPool.DropoutMask(mask, p, tensor.NewRNG(5))
	zeros := 0
	keep := float32(1 / (1 - p))
	for _, v := range mask {
		switch v {
		case 0:
			zeros++
		case keep:
		default:
			t.Fatalf("mask value %v is neither 0 nor %v", v, keep)
		}
	}
	rate := float64(zeros) / n
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("drop rate %v, want ~%v", rate, p)
	}
}

func TestDropoutMaskPreservesExpectation(t *testing.T) {
	const n = 200000
	x := make([]float32, n)
	for i := range x {
		x[i] = 1
	}
	mask := make([]float32, n)
	processPool.DropoutMask(mask, 0.1, tensor.NewRNG(6))
	y := make([]float32, n)
	processPool.DropoutApply(y, x, mask)
	var sum float64
	for _, v := range y {
		sum += float64(v)
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Fatalf("inverted dropout mean %v, want ~1", mean)
	}
}

func TestDropoutZeroProbability(t *testing.T) {
	mask := make([]float32, 10)
	processPool.DropoutMask(mask, 0, tensor.NewRNG(7))
	for _, v := range mask {
		if v != 1 {
			t.Fatalf("p=0 mask value %v, want 1", v)
		}
	}
}

func TestDropoutZeroProbabilityPreservesStream(t *testing.T) {
	// Stream-stability contract: p == 0 must not consume the RNG, so a
	// zero-rate dropout layer leaves downstream random state untouched
	// and seed-for-seed comparisons against a no-dropout model hold.
	rng := tensor.NewRNG(7)
	processPool.DropoutMask(make([]float32, 1024), 0, rng)
	want := tensor.NewRNG(7)
	for i := 0; i < 8; i++ {
		if got, w := rng.Float32(), want.Float32(); got != w {
			t.Fatalf("draw %d after p=0 mask: %v, want %v (stream was consumed)", i, got, w)
		}
	}
	// And p > 0 consumes exactly len(mask) draws, sequentially.
	rng = tensor.NewRNG(7)
	processPool.DropoutMask(make([]float32, 100), 0.5, rng)
	want = tensor.NewRNG(7)
	for i := 0; i < 100; i++ {
		want.Float32()
	}
	if got, w := rng.Float32(), want.Float32(); got != w {
		t.Fatalf("p>0 mask consumed a draw count != len(mask): next draw %v, want %v", got, w)
	}
}

func TestDropoutBadProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p=1 did not panic")
		}
	}()
	processPool.DropoutMask(make([]float32, 4), 1, tensor.NewRNG(8))
}

func TestReductions(t *testing.T) {
	x := []float32{3, 4}
	if got := processPool.SumSquares(x); got != 25 {
		t.Fatalf("SumSquares = %v", got)
	}
	if processPool.SumSquares(nil) != 0 {
		t.Fatal("empty reductions must be 0")
	}
}

func TestSumSquaresParallelMatchesSerial(t *testing.T) {
	r := tensor.NewRNG(9)
	x := randSlice(r, 100001)
	par := processPool.SumSquares(x)
	ser := poolOf(1).SumSquares(x)
	if math.Abs(par-ser) > 1e-6*math.Abs(ser) {
		t.Fatalf("parallel %v vs serial %v", par, ser)
	}
}

func TestCrossEntropyUniformLogits(t *testing.T) {
	rows, classes := 2, 4
	logits := make([]float32, rows*classes)
	probs := make([]float32, rows*classes)
	loss := processPool.CrossEntropyForward(probs, logits, []int{1, 3}, rows, classes)
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform CE loss = %v, want ln4 = %v", loss, math.Log(4))
	}
}

func TestCrossEntropyIgnoreIndex(t *testing.T) {
	rows, classes := 3, 4
	logits := make([]float32, rows*classes)
	logits[0*classes+2] = 5 // confident correct prediction on row 0
	probs := make([]float32, rows*classes)
	lossAll := processPool.CrossEntropyForward(probs, logits, []int{2, 0, 0}, rows, classes)
	lossIgnored := processPool.CrossEntropyForward(probs, logits, []int{2, IgnoreIndex, IgnoreIndex}, rows, classes)
	if lossIgnored >= lossAll {
		t.Fatalf("ignoring uniform rows should lower mean loss: %v vs %v", lossIgnored, lossAll)
	}
	dLogits := make([]float32, rows*classes)
	processPool.CrossEntropyBackward(dLogits, probs, []int{2, IgnoreIndex, IgnoreIndex}, rows, classes)
	for j := 0; j < classes; j++ {
		if dLogits[1*classes+j] != 0 || dLogits[2*classes+j] != 0 {
			t.Fatal("ignored rows must have zero gradient")
		}
	}
}

func TestCrossEntropyAllIgnored(t *testing.T) {
	probs := make([]float32, 4)
	if loss := processPool.CrossEntropyForward(probs, make([]float32, 4), []int{IgnoreIndex}, 1, 4); loss != 0 {
		t.Fatalf("all-ignored loss = %v", loss)
	}
	d := []float32{1, 1, 1, 1}
	processPool.CrossEntropyBackward(d, probs, []int{IgnoreIndex}, 1, 4)
	for _, v := range d {
		if v != 0 {
			t.Fatal("all-ignored gradient must be zero")
		}
	}
}

func TestCrossEntropyGradFiniteDifference(t *testing.T) {
	r := tensor.NewRNG(11)
	rows, classes := 3, 5
	logits := randSlice(r, rows*classes)
	targets := []int{2, IgnoreIndex, 4}
	probs := make([]float32, rows*classes)
	processPool.CrossEntropyForward(probs, logits, targets, rows, classes)
	dLogits := make([]float32, rows*classes)
	processPool.CrossEntropyBackward(dLogits, probs, targets, rows, classes)

	const eps = 1e-3
	for i := 0; i < rows*classes; i += 3 {
		orig := logits[i]
		logits[i] = orig + eps
		lp := processPool.CrossEntropyForward(probs, logits, targets, rows, classes)
		logits[i] = orig - eps
		lm := processPool.CrossEntropyForward(probs, logits, targets, rows, classes)
		logits[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dLogits[i])) > 1e-3 {
			t.Fatalf("CE grad[%d]: analytic %v vs numeric %v", i, dLogits[i], num)
		}
	}
}

func TestCrossEntropyBadTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range target did not panic")
		}
	}()
	processPool.CrossEntropyForward(make([]float32, 4), make([]float32, 4), []int{7}, 1, 4)
}

// scaleMaskSoftmaxSequence is the attention-score chain as four passes:
// Scale in place, the broadcast key-mask add, the causal fill, then
// Softmax into dst. It is the bitwise oracle of scaleMaskSoftmaxRow and
// the score pass of the test copy of the whole-tensor attention chain
// (attnChain).
func scaleMaskSoftmaxSequence(dst, scores, keyMask []float32, s float32, causal bool, b, h, n int) {
	processPool.Scale(scores, scores, s)
	for r := 0; r < b*h*n; r++ {
		row := scores[r*n : (r+1)*n]
		if keyMask != nil {
			batch := r / (h * n)
			for k, m := range keyMask[batch*n : (batch+1)*n] {
				row[k] += m
			}
		}
		if causal {
			for k := r%n + 1; k < n; k++ {
				row[k] = -1e9
			}
		}
	}
	processPool.Softmax(dst, scores, b*h*n, n)
}

// scaleMaskSoftmaxRows runs the attention region's row body over a
// [B·h, n, n] score tensor in place.
func scaleMaskSoftmaxRows(scores, keyMask []float32, s float32, causal bool, b, h, n int) {
	for r := 0; r < b*h*n; r++ {
		var mk []float32
		if keyMask != nil {
			batch := r / (h * n)
			mk = keyMask[batch*n : (batch+1)*n]
		}
		scaleMaskSoftmaxRow(scores[r*n:(r+1)*n], mk, s, causal, r%n)
	}
}

// TestScaleMaskSoftmaxAttentionMatchesSequence: the attention region's
// scale/mask/softmax row body computes the four-pass chain's bits under
// every kernel-table entry, with and without a key mask and causal
// masking, at rows that are and are not a multiple of the vector width.
func TestScaleMaskSoftmaxAttentionMatchesSequence(t *testing.T) {
	forEachKernel(t, "", func(t *testing.T) {
		for _, sh := range []struct{ b, h, n int }{{2, 3, 8}, {4, 12, 128}, {1, 4, 37}} {
			rows := sh.b * sh.h * sh.n
			r := tensor.NewRNG(uint64(21 + sh.n))
			scores := randSlice(r, rows*sh.n)
			for i := range scores {
				scores[i] *= 8
			}
			keyMask := make([]float32, sh.b*sh.n)
			for bi := 0; bi < sh.b; bi++ {
				for k := sh.n - 1 - bi; k < sh.n; k++ {
					keyMask[bi*sh.n+k] = -1e9 // sequence bi: its last bi+1 keys are padding
				}
			}
			s := float32(1 / math.Sqrt(float64(sh.n)))
			for _, mask := range [][]float32{nil, keyMask} {
				for _, causal := range []bool{false, true} {
					want := make([]float32, rows*sh.n)
					scaleMaskSoftmaxSequence(want, append([]float32(nil), scores...), mask, s, causal, sh.b, sh.h, sh.n)
					got := append([]float32(nil), scores...)
					scaleMaskSoftmaxRows(got, mask, s, causal, sh.b, sh.h, sh.n)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%+v mask=%v causal=%v elem %d: row body %#08x, sequence %#08x",
								sh, mask != nil, causal, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	})
}

// TestScaleMaskSoftmaxAttentionNilMask: with no key mask every row of the
// attention probabilities the region saves sums to one.
func TestScaleMaskSoftmaxAttentionNilMask(t *testing.T) {
	r := tensor.NewRNG(22)
	b, h, n, dh := 1, 2, 4, 3
	x := randSlice(r, b*n*h*dh)
	at := &Attention{Q: x, K: x, V: x, Offsets: []int{0, n}, Heads: h, DHead: dh, Scale: 1, Probs: make([]float32, b*h*n*n)}
	GEMMPathAuto.AttentionForward(nil, at, make([]float32, len(x)), nil)
	for row := 0; row < b*h*n; row++ {
		var sum float64
		for k := 0; k < n; k++ {
			sum += float64(at.Probs[row*n+k])
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", row, sum)
		}
	}
}

// TestScaleMaskSoftmaxAttentionBadDimsPanics: a key mask that is not one
// value per token panics.
func TestScaleMaskSoftmaxAttentionBadDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x := make([]float32, 2)
	GEMMPathAuto.AttentionForward(nil, &Attention{Q: x, K: x, V: x, Offsets: []int{0, 2}, Heads: 1, DHead: 1, Scale: 1, KeyMask: make([]float32, 3)}, make([]float32, 2), nil)
}

// refAddBias / refBiasGrad are the serial reference kernels the flattened
// (AddBias) and column-banded (BiasGrad) implementations must match
// bitwise: per-element adds are order-free, and BiasGrad is a per-column
// continuation fold seeded from the existing dBias, accumulating rows in
// order i = 0..m-1 (so split-row calls compose bitwise — the gradient-
// accumulation contract).
func refAddBias(x, bias []float32, m, n int) {
	for i := 0; i < m; i++ {
		row := x[i*n : (i+1)*n]
		for j, b := range bias {
			row[j] += b
		}
	}
}

func refBiasGrad(dBias, dY []float32, m, n int) {
	for j := 0; j < n; j++ {
		s := dBias[j]
		for i := 0; i < m; i++ {
			s += dY[i*n+j]
		}
		dBias[j] = s
	}
}

func TestAddBiasBiasGradMatchReferenceBitwise(t *testing.T) {
	r := tensor.NewRNG(77)
	shapes := []struct{ m, n int }{
		{1, 1}, {1, 257}, {2, 63}, {3, 64}, {5, 65}, {17, 19},
		{1, 4096}, {2, 5000}, {64, 64}, {7, 768}, {128, 3},
	}
	for _, sh := range shapes {
		for _, w := range []int{1, 2, 4, 7} {
			pool := poolOf(w)
			x := randSlice(r, sh.m*sh.n)
			bias := randSlice(r, sh.n)
			want := append([]float32(nil), x...)
			refAddBias(want, bias, sh.m, sh.n)
			pool.AddBias(x, bias, sh.m, sh.n)
			for i := range x {
				if math.Float32bits(x[i]) != math.Float32bits(want[i]) {
					t.Fatalf("AddBias m=%d n=%d w=%d: elem %d = %v, want %v",
						sh.m, sh.n, w, i, x[i], want[i])
				}
			}
			dB := randSlice(r, sh.n)
			wantB := append([]float32(nil), dB...)
			refBiasGrad(wantB, x, sh.m, sh.n)
			pool.BiasGrad(dB, x, sh.m, sh.n)
			for j := range dB {
				if math.Float32bits(dB[j]) != math.Float32bits(wantB[j]) {
					t.Fatalf("BiasGrad m=%d n=%d w=%d: col %d = %v, want %v",
						sh.m, sh.n, w, j, dB[j], wantB[j])
				}
			}
		}
	}
}

func TestAddBiasBiasGradZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts unreliable under -race")
	}
	r := tensor.NewRNG(78)
	m, n := 64, 768
	x := randSlice(r, m*n)
	bias := randSlice(r, n)
	dB := make([]float32, n)
	pool := poolOf(1)
	pool.AddBias(x, bias, m, n) // warm the state pools
	pool.BiasGrad(dB, x, m, n)
	for _, ac := range allocCases {
		if avg := ac.allocs(10, func() { pool.AddBias(x, bias, m, n) }); avg != 0 {
			t.Errorf("AddBias allocates %v per op %s, want 0", avg, ac.name)
		}
		if avg := ac.allocs(10, func() { pool.BiasGrad(dB, x, m, n) }); avg != 0 {
			t.Errorf("BiasGrad allocates %v per op %s, want 0", avg, ac.name)
		}
	}
}
