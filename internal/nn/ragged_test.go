package nn

import (
	"fmt"
	"math"
	"testing"

	"demystbert/internal/kernels"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// TestRaggedForwardMatchesPerSequenceForward ties the padding-free
// evaluation forward to the [B, n] one it shares every module with: the
// embedding and an encoder layer over a ragged batch give, bit for bit, the
// rows the [B, n] forward gives each sequence run alone at its own length
// (B = 1, no mask) — causal or not, with the fused Add&Norm tails and, in
// mixed precision, the unfused ones. The GEMM route is forced so that it
// cannot change with the row count.
func TestRaggedForwardMatchesPerSequenceForward(t *testing.T) {
	const vocab, maxPos, d, heads, dff = 50, 12, 32, 4, 64
	offsets := []int{0, 12, 13, 20, 22}
	rng := tensor.NewRNG(4)
	tokens, segments := make([]int, 22), make([]int, 22)
	for i := range tokens {
		tokens[i], segments[i] = rng.Intn(vocab), rng.Intn(2)
	}
	for _, mp := range []bool{false, true} {
		for _, causal := range []bool{false, true} {
			t.Run(fmt.Sprintf("mp=%v/causal=%v", mp, causal), func(t *testing.T) {
				emb := NewEmbedding(vocab, maxPos, d, 0.1, tensor.NewRNG(1))
				layer := NewEncoderLayer("l", d, heads, dff, 0.1, tensor.NewRNG(2))
				layer.Attn.Causal = causal
				ctx := &Ctx{MixedPrecision: mp, Prof: profile.New(), Route: kernels.GEMMPathBlocked}

				got := layer.ForwardRagged(ctx, emb.ForwardRagged(ctx, tokens, segments, offsets), offsets)
				for s := 1; s < len(offsets); s++ {
					lo, hi := offsets[s-1], offsets[s]
					want := layer.Forward(ctx, emb.Forward(ctx, tokens[lo:hi], segments[lo:hi], 1, hi-lo), 1, hi-lo, nil)
					for r := lo; r < hi; r++ {
						for j, w := range want.Row(r - lo) {
							if g := got.Row(r)[j]; math.Float32bits(g) != math.Float32bits(w) {
								t.Fatalf("sequence %d row %d dim %d: ragged %v, alone through the [B, n] forward %v", s-1, r-lo, j, g, w)
							}
						}
					}
				}

				// The whole attention core of a layer call is one event with the
				// B-GEMM work of every (sequence, head) item.
				var flops int64
				for s := 1; s < len(offsets); s++ {
					n := offsets[s] - offsets[s-1]
					flops += heads * 2 * kernels.GEMMFLOPs(n, n, d/heads)
				}
				events := 0
				for _, ev := range ctx.Prof.Events() {
					if ev.Kernel == "attn_ragged" {
						events++
						if ev.Category != profile.CatAttnBGEMM || ev.FLOPs != flops {
							t.Errorf("attn_ragged event: category %v, %d FLOPs; want %v, %d", ev.Category, ev.FLOPs, profile.CatAttnBGEMM, flops)
						}
					}
				}
				if events != 1 {
					t.Errorf("%d attn_ragged events for one ragged layer call, want 1", events)
				}
			})
		}
	}
}

// TestRaggedForwardIsEvaluationOnly: nothing is saved for Backward and
// attention dropout never runs, so a training context is refused.
func TestRaggedForwardIsEvaluationOnly(t *testing.T) {
	emb := NewEmbedding(20, 8, 16, 0.1, tensor.NewRNG(1))
	layer := NewEncoderLayer("l", 16, 2, 32, 0.1, tensor.NewRNG(2))
	offsets := []int{0, 3}
	for name, f := range map[string]func(){
		"embedding": func() { emb.ForwardRagged(NewCtx(1), []int{1, 2, 3}, []int{0, 0, 0}, offsets) },
		"layer":     func() { layer.ForwardRagged(NewCtx(1), tensor.New(3, 16), offsets) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic under a training context", name)
				}
			}()
			f()
		}()
	}
}
