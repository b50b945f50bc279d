package nn

import (
	"math"
	"testing"

	"demystbert/internal/kernels"
	"demystbert/internal/tensor"
)

// TestTokScatterFlushSparseMatchesDense: FlushTokScatter adds and clears
// only the rows scattered since the last flush, and that must be bitwise
// the dense fold it replaced — AccumulateInto over the whole table, then
// ZeroAll — on the states a training step reaches. Tok.Grad starts at +0
// and takes the tied decoder's weight-gradient GEMM first, with one row
// whose products cancel to +0 and rows of NaN and ±Inf; the scatter runs
// over two accumulation micro-batches with repeated tokens, non-finite
// upstream rows and a token both micro-batches share. A dropped
// half-iteration must leave nothing behind for the next flush.
func TestTokScatterFlushSparseMatchesDense(t *testing.T) {
	const vocab, d, n, rows = 40, 16, 6, 3
	r := tensor.NewRNG(81)
	e := NewEmbedding(vocab, n, d, 0, r)
	ctx := evalCtx()

	// The decoder's dW += dLogitsᵀ·H over three scored rows; rows 0 and 1
	// of H are equal, so vocab row 5 (+1 on one, −1 on the other) folds to
	// exactly zero, and NaN/Inf logit gradients give non-finite rows.
	h := randTensor(r, rows, d).Data()
	copy(h[d:2*d], h[:d])
	dLogits := randTensor(r, rows, vocab).Data()
	dLogits[0*vocab+5], dLogits[1*vocab+5], dLogits[2*vocab+5] = 1, -1, 0
	dLogits[1*vocab+9] = float32(math.NaN())
	dLogits[2*vocab+11] = float32(math.Inf(1))
	dLogits[0*vocab+12] = float32(math.Inf(-1))
	kernels.GEMM(true, false, vocab, d, rows, 1, dLogits, h, 1, e.Tok.Grad.Data())
	if bits := math.Float32bits(e.Tok.Grad.Row(5)[0]); bits != 0 {
		t.Fatalf("cancelling row holds %#x, want +0", bits)
	}

	scatter := func(tokens []int, poison bool) {
		seg := make([]int, n)
		e.Forward(ctx, tokens, seg, 1, n)
		dY := randTensor(r, n, d)
		if poison {
			dY.Row(1)[3] = float32(math.NaN())
			dY.Row(4)[0] = float32(math.Inf(1))
		}
		e.Backward(ctx, dY)
	}
	flushMatchesDense := func(label string) {
		t.Helper()
		want := append([]float32(nil), e.Tok.Grad.Data()...)
		ctx.Pool.AccumulateInto(want, e.tokScatter.Data())
		e.FlushTokScatter(ctx)
		for i, w := range want {
			if g := e.Tok.Grad.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%s: Tok.Grad[%d] = %v (%#x) sparse, %v (%#x) dense", label, i, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
		for i, v := range e.tokScatter.Data() {
			if math.Float32bits(v) != 0 {
				t.Fatalf("%s: accumulator[%d] = %v after the flush, want +0", label, i, v)
			}
		}
		if len(e.tokRows) != 0 {
			t.Fatalf("%s: %d rows still listed after the flush", label, len(e.tokRows))
		}
	}

	scatter([]int{3, 7, 3, 9, 3, 11}, true)
	scatter([]int{7, 20, 20, 5, 12, 3}, false)
	flushMatchesDense("two micro-batches")

	scatter([]int{30, 31, 30, 32, 33, 34}, false)
	e.DropTokScatter()
	for i, v := range e.tokScatter.Data() {
		if math.Float32bits(v) != 0 {
			t.Fatalf("accumulator[%d] = %v after a drop, want +0", i, v)
		}
	}
	scatter([]int{31, 1, 1, 2, 9, 39}, true)
	flushMatchesDense("after a dropped half-iteration")
}
