package nn

import (
	"fmt"
	"math"
	"testing"

	"demystbert/internal/kernels"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// unfusedForwardFrom is the encoder layer's forward from the merged heads
// as one module call per operator — the sequence the fused tails replaced
// wherever the block dropout was active or precision mixed: the output
// projection, its binary16 store, the block dropout, the residual add and
// LayerNorm; FC-1, its store and GeLU; then FC-2 and the same tail.
func unfusedForwardFrom(ctx *Ctx, e *EncoderLayer, x, merged *tensor.Tensor) *tensor.Tensor {
	attnOut := e.Attn.Wo.Forward(ctx, merged)
	ctx.StoreHalf(attnOut)
	h := e.AttnLN.Forward(ctx, Residual{}.AddSkip(ctx, e.AttnDrop.Forward(ctx, attnOut), x))
	hidden := e.FF.FC1.Forward(ctx, h)
	ctx.StoreHalf(hidden)
	ffOut := e.FF.FC2.Forward(ctx, e.FF.Act.Forward(ctx, hidden))
	ctx.StoreHalf(ffOut)
	return e.FFLN.Forward(ctx, Residual{}.AddSkip(ctx, e.FFDrop.Forward(ctx, ffOut), h))
}

// encoderRun is what one encoder-layer pass leaves behind: its output,
// every tensor its backward reads, the input and parameter gradients, the
// dropout generator's state after the forward, and the profile events as
// a multiset.
type encoderRun struct {
	out    []float32
	saved  map[string][]float32
	grads  map[string][]float32
	rng    uint64
	events map[string]int
}

func snapshot(t *tensor.Tensor) []float32 {
	if t == nil {
		return nil
	}
	return append([]float32(nil), t.Data()...)
}

// TestEncoderLayerMatchesUnfusedSequence: the layer's one forward — the
// block dropout, the binary16 store and the Add&Norm tail inside the
// projections' GEMM write-back — is bitwise the one-module-per-operator
// sequence, in full and mixed precision, with the block dropout off and
// on, in training, evaluation and a checkpointed recompute, on every GEMM
// route: the output, every tensor the backward reads, the input and
// parameter gradients, the generator's state and the profile's event
// multiset all agree.
func TestEncoderLayerMatchesUnfusedSequence(t *testing.T) {
	const b, n, d, heads, dff = 2, 8, 32, 2, 64
	r := tensor.NewRNG(70)
	x, dY := randTensor(r, b*n, d), randTensor(r, b*n, d)
	routes := []kernels.GEMMPath{kernels.GEMMPathAuto, kernels.GEMMPathNaive, kernels.GEMMPathBlocked, kernels.GEMMPathFused}
	for _, route := range routes {
		for _, mp := range []bool{false, true} {
			for _, p := range []float32{0, 0.1} {
				for _, mode := range []string{"train", "eval", "recompute"} {
					run := func(fused bool) encoderRun {
						e := NewEncoderLayer("enc", d, heads, dff, p, tensor.NewRNG(71))
						ctx := &Ctx{Prof: profile.New(), RNG: tensor.NewRNG(72), Train: mode != "eval", MixedPrecision: mp, Route: route}
						ctx.ResetWorkspace()
						forward := func() *tensor.Tensor {
							if fused {
								return e.Forward(ctx, x, b, n, nil)
							}
							return unfusedForwardFrom(ctx, e, x, e.Attn.forwardCore(ctx, x, uniformOffsets(&e.Attn.offsets, b, n), nil))
						}
						y := forward()
						if mode == "recompute" {
							ctx.Recompute = true
							y = forward()
							ctx.Recompute = false
						}
						res := encoderRun{out: snapshot(y), rng: ctx.RNG.State(), saved: map[string][]float32{}, grads: map[string][]float32{}}
						for name, s := range map[string]*tensor.Tensor{
							"Wo.x": e.Attn.Wo.x, "AttnDrop.mask": e.AttnDrop.mask,
							"AttnLN.x": e.AttnLN.x, "AttnLN.mean": e.AttnLN.mean, "AttnLN.invStd": e.AttnLN.invStd,
							"FC1.x": e.FF.FC1.x, "Act.x": e.FF.Act.x, "FC2.x": e.FF.FC2.x, "FFDrop.mask": e.FFDrop.mask,
							"FFLN.x": e.FFLN.x, "FFLN.mean": e.FFLN.mean, "FFLN.invStd": e.FFLN.invStd,
						} {
							res.saved[name] = snapshot(s)
						}
						if ctx.Train {
							res.grads["dX"] = snapshot(e.Backward(ctx, dY))
							for _, p := range e.Params() {
								res.grads[p.Name] = snapshot(p.Grad)
							}
						}
						res.events = map[string]int{}
						for _, ev := range ctx.Prof.Events() {
							res.events[fmt.Sprintf("%s/%s/%s/%d/%d", ev.Kernel, ev.Category, ev.Phase, ev.FLOPs, ev.Bytes)]++
						}
						return res
					}
					got, want := run(true), run(false)
					id := fmt.Sprintf("route=%s mp=%v p=%v %s", route, mp, p, mode)
					same := func(what string, g, w []float32) {
						t.Helper()
						if len(g) != len(w) {
							t.Fatalf("%s: %s holds %d values, the unfused sequence %d", id, what, len(g), len(w))
						}
						for i := range g {
							if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
								t.Fatalf("%s: %s[%d] = %v, the unfused sequence %v", id, what, i, g[i], w[i])
							}
						}
					}
					same("output", got.out, want.out)
					for name, w := range want.saved {
						same("saved "+name, got.saved[name], w)
					}
					for name, w := range want.grads {
						same("gradient "+name, got.grads[name], w)
					}
					if len(got.grads) != len(want.grads) {
						t.Fatalf("%s: %d gradients, the unfused sequence %d", id, len(got.grads), len(want.grads))
					}
					if got.rng != want.rng {
						t.Fatalf("%s: generator state %#x after the forward, the unfused sequence %#x", id, got.rng, want.rng)
					}
					for ev, c := range want.events {
						if got.events[ev] != c {
							t.Errorf("%s: %d events %s, the unfused sequence %d", id, got.events[ev], ev, c)
						}
					}
					if len(got.events) != len(want.events) {
						t.Errorf("%s: %d distinct events, the unfused sequence %d", id, len(got.events), len(want.events))
					}
				}
			}
		}
	}
}
