package nn

import (
	"math"
	"testing"

	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// evalCtx returns a context with dropout disabled and no profiler, for
// deterministic gradient checks.
func evalCtx() *Ctx {
	return &Ctx{RNG: tensor.NewRNG(1), Train: true}
}

func randTensor(r *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.FillUniform(r, -1, 1)
	return t
}

// dotLoss is the scalar probe loss sum(dY ⊙ Y).
func dotLoss(y, dY *tensor.Tensor) float64 {
	var s float64
	yd, dd := y.Data(), dY.Data()
	for i := range yd {
		s += float64(yd[i]) * float64(dd[i])
	}
	return s
}

// bumped wraps a grad-check forward closure so each evaluation first
// marks the module's parameters mutated, honoring the pack-cache contract
// (checkGrad perturbs weight buffers in place, which would otherwise
// leave a stale cached pack serving Forward).
func bumped(ps []*Param, forward func() float64) func() float64 {
	return func() float64 {
		for _, p := range ps {
			p.BumpGen()
		}
		return forward()
	}
}

// checkGrad verifies an analytic gradient against central differences of
// the forward function at a sample of positions.
func checkGrad(t *testing.T, name string, buf, grad []float32, forward func() float64, tol float64, stride int) {
	t.Helper()
	const eps = 1e-2
	for i := 0; i < len(buf); i += stride {
		orig := buf[i]
		buf[i] = orig + eps
		lp := forward()
		buf[i] = orig - eps
		lm := forward()
		buf[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad[i])) > tol*math.Max(1, math.Abs(num)) {
			t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, grad[i], num)
		}
	}
}

func TestLinearForwardShape(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewLinear("l", 8, 16, profile.CatLinear, r)
	y := l.Forward(evalCtx(), randTensor(r, 5, 8))
	if y.Dim(0) != 5 || y.Dim(1) != 16 {
		t.Fatalf("Linear output shape %v", y.Shape())
	}
}

func TestLinearKnownValues(t *testing.T) {
	r := tensor.NewRNG(2)
	l := NewLinear("l", 2, 2, profile.CatLinear, r)
	// W = [[1,2],[3,4]], b = [10, 20]; y = x·W^T + b.
	copy(l.W.Value.Data(), []float32{1, 2, 3, 4})
	copy(l.B.Value.Data(), []float32{10, 20})
	x := tensor.Of([]float32{1, 1}, 1, 2)
	y := l.Forward(evalCtx(), x)
	if y.At(0, 0) != 13 || y.At(0, 1) != 27 {
		t.Fatalf("Linear output = %v %v, want 13 27", y.At(0, 0), y.At(0, 1))
	}
}

func TestLinearGradCheck(t *testing.T) {
	r := tensor.NewRNG(3)
	l := NewLinear("l", 6, 4, profile.CatLinear, r)
	x := randTensor(r, 5, 6)
	dY := randTensor(r, 5, 4)
	ctx := evalCtx()

	y := l.Forward(ctx, x)
	dX := l.Backward(ctx, dY)

	forwardX := bumped(l.Params(), func() float64 {
		return dotLoss(l.Forward(evalCtx(), x), dY)
	})
	checkGrad(t, "Linear dX", x.Data(), dX.Data(), forwardX, 1e-2, 3)
	checkGrad(t, "Linear dW", l.W.Value.Data(), l.W.Grad.Data(), forwardX, 1e-2, 5)
	checkGrad(t, "Linear dB", l.B.Value.Data(), l.B.Grad.Data(), forwardX, 1e-2, 1)
	_ = y
}

func TestLinearGradAccumulates(t *testing.T) {
	r := tensor.NewRNG(4)
	l := NewLinear("l", 3, 3, profile.CatLinear, r)
	x := randTensor(r, 2, 3)
	dY := randTensor(r, 2, 3)
	ctx := evalCtx()
	l.Forward(ctx, x)
	l.Backward(ctx, dY)
	once := append([]float32(nil), l.W.Grad.Data()...)
	l.Forward(ctx, x)
	l.Backward(ctx, dY)
	for i := range once {
		if math.Abs(float64(l.W.Grad.Data()[i]-2*once[i])) > 1e-5 {
			t.Fatal("weight gradient must accumulate across backward calls")
		}
	}
}

func TestLinearBackwardBeforeForwardPanics(t *testing.T) {
	r := tensor.NewRNG(5)
	l := NewLinear("l", 3, 3, profile.CatLinear, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Backward(evalCtx(), randTensor(r, 2, 3))
}

func TestLinearDimensionMismatchPanics(t *testing.T) {
	r := tensor.NewRNG(6)
	l := NewLinear("l", 3, 3, profile.CatLinear, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Forward(evalCtx(), randTensor(r, 2, 4))
}

func TestGeLUModuleGradCheck(t *testing.T) {
	r := tensor.NewRNG(7)
	g := NewGeLU()
	x := randTensor(r, 4, 8)
	dY := randTensor(r, 4, 8)
	ctx := evalCtx()
	g.Forward(ctx, x)
	dX := g.Backward(ctx, dY)
	forward := func() float64 { return dotLoss(NewGeLU().Forward(evalCtx(), x), dY) }
	checkGrad(t, "GeLU dX", x.Data(), dX.Data(), forward, 1e-2, 5)
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	r := tensor.NewRNG(8)
	d := NewDropout(0.5, profile.CatDRRCLN)
	ctx := evalCtx()
	ctx.Train = false
	x := randTensor(r, 3, 3)
	if y := d.Forward(ctx, x); y != x {
		t.Fatal("eval-mode dropout must be identity")
	}
	dY := randTensor(r, 3, 3)
	if got := d.Backward(ctx, dY); got != dY {
		t.Fatal("eval-mode dropout backward must be identity")
	}
}

func TestDropoutTrainZeroesAndScales(t *testing.T) {
	d := NewDropout(0.5, profile.CatDRRCLN)
	ctx := evalCtx()
	x := tensor.New(100, 100)
	x.Fill(1)
	y := d.Forward(ctx, x)
	zeros, twos := 0, 0
	for _, v := range y.Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("dropout(0.5) output %v not in {0, 2}", v)
		}
	}
	if zeros == 0 || twos == 0 {
		t.Fatal("dropout must both zero and scale")
	}
	// Backward must use the same mask.
	dY := tensor.New(100, 100)
	dY.Fill(1)
	dX := d.Backward(ctx, dY)
	for i := range y.Data() {
		if (y.Data()[i] == 0) != (dX.Data()[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestLayerNormModuleGradCheck(t *testing.T) {
	r := tensor.NewRNG(9)
	ln := NewLayerNorm("ln", 8)
	ln.Gamma.Value.FillUniform(r, 0.5, 1.5)
	ln.Beta.Value.FillUniform(r, -0.5, 0.5)
	x := randTensor(r, 4, 8)
	dY := randTensor(r, 4, 8)
	ctx := evalCtx()
	ln.Forward(ctx, x)
	dX := ln.Backward(ctx, dY)
	forward := func() float64 {
		return dotLoss(ln.Forward(evalCtx(), x), dY)
	}
	checkGrad(t, "LN dX", x.Data(), dX.Data(), forward, 2e-2, 3)
	// Gradients accumulate, so snapshot then zero before re-checking.
	dGamma := append([]float32(nil), ln.Gamma.Grad.Data()...)
	dBeta := append([]float32(nil), ln.Beta.Grad.Data()...)
	checkGrad(t, "LN dGamma", ln.Gamma.Value.Data(), dGamma, forward, 2e-2, 2)
	checkGrad(t, "LN dBeta", ln.Beta.Value.Data(), dBeta, forward, 2e-2, 2)
}

func TestResidualAddSkip(t *testing.T) {
	ctx := evalCtx()
	var res Residual
	x := tensor.Of([]float32{1, 2}, 1, 2)
	s := tensor.Of([]float32{10, 20}, 1, 2)
	y := res.AddSkip(ctx, x, s)
	if y.At(0, 0) != 11 || y.At(0, 1) != 22 {
		t.Fatalf("AddSkip = %v", y.Data())
	}
}

func TestAttentionForwardShape(t *testing.T) {
	r := tensor.NewRNG(10)
	a := NewMultiHeadAttention("a", 16, 4, 0, r)
	b, n := 2, 6
	x := randTensor(r, b*n, 16)
	y := a.Forward(evalCtx(), x, b, n, nil)
	if y.Dim(0) != b*n || y.Dim(1) != 16 {
		t.Fatalf("attention output shape %v", y.Shape())
	}
}

// An attention block may be narrower inside than at its input, as a
// tensor-sliced shard holding some of the heads is: Q, K, V and Wo's
// input are heads·dHead wide, x and dX are Wq.In() wide.
func TestAttentionFromNarrowProjections(t *testing.T) {
	r := tensor.NewRNG(12)
	proj := func(in, out int) *Linear { return NewLinear("p", in, out, profile.CatLinear, r) }
	a := NewAttentionFrom(proj(16, 8), proj(16, 8), proj(16, 8), proj(8, 16), 2)
	b, n := 2, 5
	ctx := NewCtx(1)
	y := a.Forward(ctx, randTensor(r, b*n, 16), b, n, nil)
	dX := a.Backward(ctx, randTensor(r, b*n, 16))
	if !tensor.SameShape(y, dX) || y.Dim(0) != b*n || y.Dim(1) != 16 {
		t.Fatalf("output %v, dX %v; want [%d, 16] both", y.Shape(), dX.Shape(), b*n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wo narrower than Q/K/V must panic")
		}
	}()
	NewAttentionFrom(proj(16, 8), proj(16, 8), proj(16, 8), proj(4, 16), 2)
}

func TestAttentionBatchOneIsStillGEMM(t *testing.T) {
	// Paper Takeaway 5 / Section 3.2.2: B=1 does not degrade BERT layers
	// to matrix-vector operations. Verify the profile records GEMM
	// kernels with M > 1 even at B=1.
	r := tensor.NewRNG(11)
	a := NewMultiHeadAttention("a", 16, 4, 0, r)
	ctx := NewCtx(1)
	n := 6
	x := randTensor(r, n, 16)
	a.Forward(ctx, x, 1, n, nil)
	sum := ctx.Prof.Summarize()
	linear := sum.ByCategory[profile.CatLinear]
	if linear.Kernels == 0 {
		t.Fatal("no Linear GEMMs recorded")
	}
	// A matrix-vector product of these sizes would be 2*16*16 FLOPs; the
	// manifested GEMM is n times that per projection.
	if linear.FLOPs < int64(n)*2*16*16 {
		t.Fatalf("Linear FLOPs %d too small: manifested as GEMV?", linear.FLOPs)
	}
	if sum.ByCategory[profile.CatAttnBGEMM].Kernels == 0 {
		t.Fatal("no batched attention GEMMs recorded")
	}
}

func TestAttentionMaskBlocksPositions(t *testing.T) {
	r := tensor.NewRNG(12)
	dModel, heads := 8, 2
	b, n := 1, 4
	a := NewMultiHeadAttention("a", dModel, heads, 0, r)
	x := randTensor(r, b*n, dModel)

	mask := tensor.New(b, n)
	mask.Set(-1e9, 0, n-1) // hide the last key position

	ctx := evalCtx()
	a.Forward(ctx, x, b, n, mask)
	// After softmax, every attention row must give ~0 weight to the
	// masked key.
	probs := a.softmaxOut
	for bh := 0; bh < b*heads; bh++ {
		for qi := 0; qi < n; qi++ {
			if p := probs.At(bh, qi, n-1); p > 1e-6 {
				t.Fatalf("masked position received probability %v", p)
			}
		}
	}
}

func TestAttentionGradCheck(t *testing.T) {
	r := tensor.NewRNG(13)
	dModel, heads := 8, 2
	b, n := 2, 3
	a := NewMultiHeadAttention("a", dModel, heads, 0, r)
	x := randTensor(r, b*n, dModel)
	dY := randTensor(r, b*n, dModel)
	ctx := evalCtx()

	a.Forward(ctx, x, b, n, nil)
	dX := a.Backward(ctx, dY)

	forward := bumped(a.Params(), func() float64 {
		return dotLoss(a.Forward(evalCtx(), x, b, n, nil), dY)
	})
	checkGrad(t, "Attn dX", x.Data(), dX.Data(), forward, 2e-2, 7)
	dWq := append([]float32(nil), a.Wq.W.Grad.Data()...)
	checkGrad(t, "Attn dWq", a.Wq.W.Value.Data(), dWq, forward, 2e-2, 13)
	dWo := append([]float32(nil), a.Wo.W.Grad.Data()...)
	checkGrad(t, "Attn dWo", a.Wo.W.Value.Data(), dWo, forward, 2e-2, 13)
	dWv := append([]float32(nil), a.Wv.W.Grad.Data()...)
	checkGrad(t, "Attn dWv", a.Wv.W.Value.Data(), dWv, forward, 2e-2, 13)
}

func TestFeedForwardGradCheck(t *testing.T) {
	r := tensor.NewRNG(14)
	ff := NewFeedForward("ff", 6, 12, r)
	x := randTensor(r, 4, 6)
	dY := randTensor(r, 4, 6)
	ctx := evalCtx()
	ff.Forward(ctx, x)
	dX := ff.Backward(ctx, dY)
	forward := bumped(ff.Params(), func() float64 {
		return dotLoss(ff.Forward(evalCtx(), x), dY)
	})
	checkGrad(t, "FF dX", x.Data(), dX.Data(), forward, 2e-2, 5)
	dW1 := append([]float32(nil), ff.FC1.W.Grad.Data()...)
	checkGrad(t, "FF dW1", ff.FC1.W.Value.Data(), dW1, forward, 2e-2, 17)
}

func TestEncoderLayerGradCheck(t *testing.T) {
	r := tensor.NewRNG(15)
	e := NewEncoderLayer("enc", 8, 2, 16, 0, r)
	b, n := 1, 4
	x := randTensor(r, b*n, 8)
	dY := randTensor(r, b*n, 8)
	ctx := evalCtx()
	e.Forward(ctx, x, b, n, nil)
	dX := e.Backward(ctx, dY)
	forward := func() float64 {
		return dotLoss(e.Forward(evalCtx(), x, b, n, nil), dY)
	}
	checkGrad(t, "Encoder dX", x.Data(), dX.Data(), forward, 3e-2, 5)
}

func TestEncoderLayerParamCount(t *testing.T) {
	r := tensor.NewRNG(16)
	d, h, ff := 16, 4, 64
	e := NewEncoderLayer("enc", d, h, ff, 0.1, r)
	var total int
	for _, p := range e.Params() {
		total += p.Size()
	}
	// 4 projections (d*d + d), 2 FC (d*ff + ff, ff*d + d), 2 LN (2d each).
	want := 4*(d*d+d) + (d*ff + ff) + (ff*d + d) + 2*(2*d)
	if total != want {
		t.Fatalf("encoder param count %d, want %d", total, want)
	}
}

func TestEmbeddingForwardShape(t *testing.T) {
	r := tensor.NewRNG(17)
	e := NewEmbedding(100, 32, 8, 0, r)
	b, n := 2, 4
	tok := []int{1, 2, 3, 4, 5, 6, 7, 8}
	seg := []int{0, 0, 1, 1, 0, 0, 1, 1}
	y := e.Forward(evalCtx(), tok, seg, b, n)
	if y.Dim(0) != b*n || y.Dim(1) != 8 {
		t.Fatalf("embedding output shape %v", y.Shape())
	}
}

func TestEmbeddingGradCheck(t *testing.T) {
	r := tensor.NewRNG(18)
	e := NewEmbedding(10, 8, 6, 0, r)
	// Default init is tiny (std 0.02), which makes LayerNorm highly
	// nonlinear over a finite-difference step; use O(1) values instead.
	e.Tok.Value.FillUniform(r, -1, 1)
	e.Pos.Value.FillUniform(r, -1, 1)
	e.Seg.Value.FillUniform(r, -1, 1)
	b, n := 1, 4
	tok := []int{1, 3, 3, 7} // repeated token exercises scatter-accumulate
	seg := []int{0, 0, 1, 1}
	dY := randTensor(r, b*n, 6)
	ctx := evalCtx()
	y := e.Forward(ctx, tok, seg, b, n)
	_ = y
	e.Backward(ctx, dY)
	e.FlushTokScatter(ctx)

	forward := func() float64 {
		return dotLoss(e.Forward(evalCtx(), tok, seg, b, n), dY)
	}
	dTok := append([]float32(nil), e.Tok.Grad.Data()...)
	// Check rows used by the batch, including the repeated token 3.
	for _, id := range []int{1, 3, 7} {
		base := id * 6
		for j := base; j < base+6; j += 2 {
			orig := e.Tok.Value.Data()[j]
			const eps = 1e-3
			e.Tok.Value.Data()[j] = orig + eps
			lp := forward()
			e.Tok.Value.Data()[j] = orig - eps
			lm := forward()
			e.Tok.Value.Data()[j] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(dTok[j])) > 2e-2*math.Max(1, math.Abs(num)) {
				t.Fatalf("embedding grad[%d]: analytic %v vs numeric %v", j, dTok[j], num)
			}
		}
	}
}

func TestEmbeddingBadTokenPanics(t *testing.T) {
	r := tensor.NewRNG(19)
	e := NewEmbedding(10, 8, 6, 0, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Forward(evalCtx(), []int{99}, []int{0}, 1, 1)
}

func TestEmbeddingSeqTooLongPanics(t *testing.T) {
	r := tensor.NewRNG(20)
	e := NewEmbedding(10, 2, 6, 0, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Forward(evalCtx(), []int{1, 1, 1}, []int{0, 0, 0}, 1, 3)
}

func TestCtxElemSize(t *testing.T) {
	c := &Ctx{}
	if c.ElemSize() != 4 {
		t.Fatal("FP32 elem size must be 4")
	}
	c.MixedPrecision = true
	if c.ElemSize() != 2 {
		t.Fatal("MP elem size must be 2")
	}
}

func TestMixedPrecisionHalvesProfiledBytes(t *testing.T) {
	r := tensor.NewRNG(21)
	run := func(mp bool) int64 {
		l := NewLinear("l", 8, 8, profile.CatLinear, r)
		ctx := NewCtx(1)
		ctx.MixedPrecision = mp
		l.Forward(ctx, randTensor(r, 4, 8))
		return ctx.Prof.Summarize().Total.Bytes
	}
	fp32, fp16 := run(false), run(true)
	if fp16*2 != fp32 {
		t.Fatalf("MP bytes %d, FP32 bytes %d: want exactly half", fp16, fp32)
	}
}

func TestParamHelpers(t *testing.T) {
	p := NewParam("w", 3, 4)
	if p.Size() != 12 {
		t.Fatalf("Size = %d", p.Size())
	}
	p.Grad.Fill(5)
	p.ZeroGrad()
	for _, v := range p.Grad.Data() {
		if v != 0 {
			t.Fatal("ZeroGrad failed")
		}
	}
}

// TestReuseWorkspace: released slots are handed out again, in order, to
// the draws that follow, and in a poisoned workspace a tensor drawn from a
// released slot reads NaN at once; slots before and after the released
// range keep their contents, and an empty range only moves the draw
// position.
func TestReuseWorkspace(t *testing.T) {
	c := &Ctx{}
	PoisonWorkspace(c)
	before := c.NewActivation(4)
	before.Fill(1)
	from := c.WorkspaceMark()
	released := c.NewActivation(2, 3)
	released.Fill(2)
	to := c.WorkspaceMark()
	after := c.NewActivation(5)
	after.Fill(3)
	end := c.WorkspaceMark()

	c.ReuseWorkspace(from, to)
	for i, v := range released.Data() {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("released slot element %d reads %v, want NaN", i, v)
		}
	}
	for _, kept := range []struct {
		t    *tensor.Tensor
		want float32
	}{{before, 1}, {after, 3}} {
		for _, v := range kept.t.Data() {
			if v != kept.want {
				t.Fatalf("a slot outside the released range reads %v, want %v", v, kept.want)
			}
		}
	}
	if again := c.NewActivation(2, 3); &again.Data()[0] != &released.Data()[0] {
		t.Fatal("the draw after a release did not take the released slot")
	}
	c.ReuseWorkspace(end, end)
	if c.WorkspaceMark() != end {
		t.Fatalf("mark %d after moving to %d", c.WorkspaceMark(), end)
	}
	for _, v := range after.Data() {
		if v != 3 {
			t.Fatalf("a slot skipped over reads %v, want 3", v)
		}
	}
	if c.WorkspaceBytes() < 4*(4+6+5) {
		t.Fatalf("workspace holds %d bytes, its draws alone take %d", c.WorkspaceBytes(), 4*(4+6+5))
	}
}
