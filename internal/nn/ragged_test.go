package nn

import (
	"fmt"
	"math"
	"reflect"
	"strings"
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

				// The whole attention core of a layer call is one region,
				// recorded as its two stage events; the B-GEMM one carries
				// the products of every (sequence, head) item.
				var flops int64
				for s := 1; s < len(offsets); s++ {
					n := offsets[s] - offsets[s-1]
					flops += heads * 2 * kernels.GEMMFLOPs(n, n, d/heads)
				}
				ctx.Prof.Reset()
				layer.ForwardRagged(ctx, emb.ForwardRagged(ctx, tokens, segments, offsets), offsets)
				want := map[string]profile.Category{"attn_core_bgemm": profile.CatAttnBGEMM, "attn_core_softmax": profile.CatScaleMaskSM}
				var gemmFLOPs int64
				for _, ev := range ctx.Prof.Events() {
					if cat, ok := want[ev.Kernel]; ok {
						delete(want, ev.Kernel)
						if ev.Category != cat {
							t.Errorf("%s event: category %v, want %v", ev.Kernel, ev.Category, cat)
						}
						if ev.Category == profile.CatAttnBGEMM {
							gemmFLOPs = ev.FLOPs
						}
					} else if ev.Category == profile.CatAttnBGEMM || ev.Category == profile.CatScaleMaskSM || strings.HasPrefix(ev.Kernel, "attn_core_") {
						t.Errorf("unexpected attention event %+v", ev)
					}
				}
				if len(want) != 0 || gemmFLOPs != flops {
					t.Errorf("ragged layer call: stage events %v missing, B-GEMM FLOPs %d; want one of each, %d", want, gemmFLOPs, flops)
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

// TestEvalForwardWritesNoModuleField: the evaluation forward — the ragged
// embedding, an encoder layer and an MLM-style head (dense + GeLU,
// LayerNorm, decoder) — leaves every module exactly as it found it, in
// full and in mixed precision, so one model serves concurrent passes on
// their own contexts. Each module is compared by value with a copy taken
// before the pass; the weights are pointers and compare equal as long as
// they are not swapped.
func TestEvalForwardWritesNoModuleField(t *testing.T) {
	const d, vocab = 16, 20
	r := tensor.NewRNG(3)
	emb := NewEmbedding(vocab, 8, d, 0.1, r)
	layer := NewEncoderLayer("l", d, 2, 32, 0.1, r)
	dense := NewLinear("dense", d, d, profile.CatOutput, r)
	act := NewGeLU()
	ln := NewLayerNorm("ln", d)
	decoder := NewLinear("decoder", d, vocab, profile.CatOutput, r)
	modules := []any{
		emb, emb.LN, emb.Drop, layer, layer.Attn, layer.Attn.Wq, layer.Attn.Wk, layer.Attn.Wv, layer.Attn.Wo,
		layer.Attn.AttnDrop, layer.AttnDrop, layer.AttnLN, layer.FF, layer.FF.FC1, layer.FF.FC2, layer.FF.Act,
		layer.FFDrop, layer.FFLN, dense, act, ln, decoder,
	}
	for _, mp := range []bool{false, true} {
		before := make([]reflect.Value, len(modules))
		for i, m := range modules {
			v := reflect.ValueOf(m).Elem()
			before[i] = reflect.New(v.Type()).Elem()
			before[i].Set(v)
		}
		ctx := &Ctx{MixedPrecision: mp, Prof: profile.New()}
		ctx.ResetWorkspace()
		offsets := []int{0, 3, 8}
		h := emb.ForwardRagged(ctx, []int{1, 2, 3, 4, 5, 6, 7, 8}, make([]int, 8), offsets)
		h = layer.ForwardRagged(ctx, h, offsets)
		if mp {
			h = act.Forward(ctx, dense.Forward(ctx, h))
		} else {
			h = dense.ForwardBiasGeLU(ctx, h, act)
		}
		decoder.Forward(ctx, ln.Forward(ctx, h))
		for i, m := range modules {
			if !reflect.DeepEqual(before[i].Interface(), reflect.ValueOf(m).Elem().Interface()) {
				t.Errorf("mixed precision %v: the evaluation forward changed a field of %T (module %d)", mp, m, i)
			}
		}
	}
}
