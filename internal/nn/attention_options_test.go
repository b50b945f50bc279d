package nn

import (
	"math"
	"testing"

	"demystbert/internal/tensor"
)

func TestCausalAttentionMasksFuture(t *testing.T) {
	r := tensor.NewRNG(1)
	a := NewMultiHeadAttention("a", 8, 2, 0, r)
	a.Causal = true
	b, n := 1, 5
	x := randTensor(r, b*n, 8)
	a.Forward(evalCtx(), x, b, n, nil)
	// Every probability above the diagonal (key > query) must be ~0.
	for bh := 0; bh < b*2; bh++ {
		for q := 0; q < n; q++ {
			for k := q + 1; k < n; k++ {
				if p := a.softmaxOut.At(bh, q, k); p > 1e-6 {
					t.Fatalf("future position (%d,%d) got probability %v", q, k, p)
				}
			}
			// Rows still normalize over the visible prefix.
			var sum float64
			for k := 0; k <= q; k++ {
				sum += float64(a.softmaxOut.At(bh, q, k))
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("causal row (%d,%d) sums to %v", bh, q, sum)
			}
		}
	}
}

func TestCausalDoesNotChangeKernelStructure(t *testing.T) {
	// Section 2.3: masking "only zeros certain matrix elements" — the
	// decoder launches the same GEMMs and the same kernels: the causal
	// mask rides inside the one scale/mask/softmax pass.
	r := tensor.NewRNG(2)
	run := func(causal bool) (kernels int, gemmFLOPs int64) {
		a := NewMultiHeadAttention("a", 16, 4, 0, tensor.NewRNG(3))
		a.Causal = causal
		ctx := NewCtx(1)
		x := randTensor(r, 12, 16)
		a.Forward(ctx, x, 2, 6, nil)
		sum := ctx.Prof.Summarize()
		var gf int64
		for _, e := range ctx.Prof.Events() {
			if e.Category.IsGEMM() {
				gf += e.FLOPs
			}
		}
		return sum.Total.Kernels, gf
	}
	kEnc, fEnc := run(false)
	kDec, fDec := run(true)
	if fDec != fEnc {
		t.Fatalf("causal masking changed GEMM FLOPs: %d vs %d", fDec, fEnc)
	}
	if kDec != kEnc {
		t.Fatalf("causal masking changed the kernel count: %d vs %d", kDec, kEnc)
	}
}

func TestCausalGradCheck(t *testing.T) {
	r := tensor.NewRNG(4)
	a := NewMultiHeadAttention("a", 8, 2, 0, r)
	a.Causal = true
	b, n := 1, 4
	x := randTensor(r, b*n, 8)
	dY := randTensor(r, b*n, 8)
	ctx := evalCtx()
	a.Forward(ctx, x, b, n, nil)
	dX := a.Backward(ctx, dY)
	forward := func() float64 {
		return dotLoss(a.Forward(evalCtx(), x, b, n, nil), dY)
	}
	checkGrad(t, "causal attn dX", x.Data(), dX.Data(), forward, 2e-2, 5)
}
