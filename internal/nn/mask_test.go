package nn

import (
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// Padding-mask correctness audit for mixed-length batches — the numerics
// the serving scheduler depends on. Two invariants (the scale/mask/softmax
// pass itself is pinned bitwise against the kernel sequence it replaced
// by kernels' TestScaleMaskSoftmaxAttentionMatchesSequence):
//
//  1. A masked key position receives exactly zero attention weight in
//     every head and every query row: exp(-1e9·1/sqrt(dHead) offset)
//     underflows f32 to 0 and the row renormalizes over real keys only.
//  2. A request padded into a wider batch with the mask set produces
//     the same output rows as the same request run serially at its
//     natural length — padding plus mask is semantically invisible.

// inferCtx returns an inference context (dropout inactive, full
// precision).
func inferCtx() *Ctx { return &Ctx{Train: false} }

// maskedInput builds a [B·n, d] input, a [B, n] additive mask marking
// positions ≥ lens[b] as padding, and fills pad rows with garbage — if
// masking works, garbage in pad rows must not influence real rows.
func maskedInput(rng *tensor.RNG, b, n, d int, lens []int) (*tensor.Tensor, *tensor.Tensor) {
	x := tensor.New(b*n, d)
	x.FillNormal(rng, 0, 1)
	mask := tensor.New(b, n)
	for bi, ln := range lens {
		for i := ln; i < n; i++ {
			mask.Set(-1e9, bi, i)
			row := x.Row(bi*n + i)
			for j := range row {
				row[j] = 37.5 * float32(j%5-2) // deliberate garbage
			}
		}
	}
	return x, mask
}

// TestMaskedKeysExactlyZeroWeight: every masked key column of the
// post-softmax probabilities is exactly 0.0 (not merely small), and each
// row still sums to 1 over the real keys.
func TestMaskedKeysExactlyZeroWeight(t *testing.T) {
	const b, n, d, heads = 2, 12, 64, 4
	lens := []int{7, 3}

	a := NewMultiHeadAttention("attn", d, heads, 0, tensor.NewRNG(3))
	x, mask := maskedInput(tensor.NewRNG(8), b, n, d, lens)
	a.Forward(&Ctx{Train: true}, x, b, n, mask) // only a training pass saves the probabilities; dropout is off

	probs := a.softmaxOut // [b·heads, n, n]
	for bh := 0; bh < b*heads; bh++ {
		ln := lens[bh/heads]
		for qi := 0; qi < n; qi++ {
			sum := float64(0)
			for ki := 0; ki < n; ki++ {
				p := probs.At(bh, qi, ki)
				if ki >= ln && p != 0 {
					t.Fatalf("masked key (seq %d, q %d, k %d) has weight %g, want exactly 0", bh/heads, qi, ki, p)
				}
				sum += float64(p)
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("probability row (bh %d, q %d) sums to %g", bh, qi, sum)
			}
		}
	}
}

// TestPaddedBatchMatchesSerialAttention: a request padded into a wider
// masked batch must produce the same real output rows as running it
// alone at its natural length. Tolerance (not bitwise) because the
// different GEMM shapes may route to differently-blocked engines.
func TestPaddedBatchMatchesSerialAttention(t *testing.T) {
	const n, d, heads = 16, 64, 4
	lens := []int{11, 6, 16}
	b := len(lens)

	mk := func() *MultiHeadAttention {
		return NewMultiHeadAttention("attn", d, heads, 0, tensor.NewRNG(21))
	}
	x, mask := maskedInput(tensor.NewRNG(9), b, n, d, lens)
	yBatch := mk().Forward(inferCtx(), x, b, n, mask)

	for bi, ln := range lens {
		xs := tensor.New(ln, d)
		for i := 0; i < ln; i++ {
			copy(xs.Row(i), x.Row(bi*n+i))
		}
		ys := mk().Forward(inferCtx(), xs, 1, ln, nil)
		for i := 0; i < ln; i++ {
			br, sr := yBatch.Row(bi*n+i), ys.Row(i)
			for j := range sr {
				if diff := math.Abs(float64(br[j] - sr[j])); diff > 1e-5 {
					t.Fatalf("seq %d row %d col %d: padded %g vs serial %g (diff %g)", bi, i, j, br[j], sr[j], diff)
				}
			}
		}
	}
}

// TestPaddedBatchMatchesSerialEncoderLayer runs the full encoder layer
// (attention + Add&Norm + FFN + Add&Norm, with the eval-mode fused
// epilogues engaged) over a padded masked batch and checks real rows
// against serial execution — the end-to-end form of the invariant the
// serving scheduler relies on.
func TestPaddedBatchMatchesSerialEncoderLayer(t *testing.T) {
	const n, d, heads, dff = 16, 64, 4, 256
	lens := []int{13, 5}
	b := len(lens)

	mk := func() *EncoderLayer {
		return NewEncoderLayer("layer", d, heads, dff, 0, tensor.NewRNG(33))
	}
	x, mask := maskedInput(tensor.NewRNG(14), b, n, d, lens)
	yBatch := mk().Forward(inferCtx(), x, b, n, mask)

	for bi, ln := range lens {
		xs := tensor.New(ln, d)
		for i := 0; i < ln; i++ {
			copy(xs.Row(i), x.Row(bi*n+i))
		}
		ys := mk().Forward(inferCtx(), xs, 1, ln, nil)
		for i := 0; i < ln; i++ {
			br, sr := yBatch.Row(bi*n+i), ys.Row(i)
			for j := range sr {
				if diff := math.Abs(float64(br[j] - sr[j])); diff > 1e-4 {
					t.Fatalf("seq %d row %d col %d: padded %g vs serial %g (diff %g)", bi, i, j, br[j], sr[j], diff)
				}
			}
		}
	}
}
