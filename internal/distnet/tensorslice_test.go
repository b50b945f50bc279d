package distnet

import (
	"math"
	"testing"
	"time"

	"demystbert/internal/nn"
	"demystbert/internal/tensor"
)

func maxDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

// sliceTol is the parity bound between a sliced layer and its unsliced
// reference. At m = 1 the shard is the whole layer and runs the same
// kernels in the same order, so it is bitwise; at m > 1 the AllReduces
// sum partial products in a different order.
func sliceTol(m int) float64 {
	if m == 1 {
		return 0
	}
	return 1e-4
}

// sliceCases are the reference layers the parity tests slice: m ways of a
// non-causal layer, and of a causal (decoder-style) one, whose shards
// must mask the future positions of their own heads.
var sliceCases = []struct {
	m      int
	causal bool
}{{1, false}, {2, false}, {4, false}, {1, true}, {2, true}}

// slicedWorld builds a dropout-free reference encoder layer with nonzero
// biases and its m-way slicing, one shard per rank of a loopback group.
func slicedWorld(t *testing.T, m int, causal bool) (*nn.EncoderLayer, []*Group, []*SlicedLayer) {
	t.Helper()
	r := tensor.NewRNG(1)
	ref := nn.NewEncoderLayer("ref", 16, 4, 32, 0, r)
	ref.Attn.Causal = causal
	for _, l := range []*nn.Linear{ref.Attn.Wq, ref.Attn.Wk, ref.Attn.Wv, ref.Attn.Wo, ref.FF.FC1, ref.FF.FC2} {
		l.B.Value.FillUniform(r, -0.1, 0.1)
	}
	groups := joinWorld(t, m, 10*time.Second)
	layers := make([]*SlicedLayer, m)
	for i, g := range groups {
		s, err := NewSlicedLayer(g, ref)
		if err != nil {
			t.Fatal(err)
		}
		layers[i] = s
	}
	return ref, groups, layers
}

func evalCtx() *nn.Ctx {
	return &nn.Ctx{RNG: tensor.NewRNG(9), Train: true}
}

// slicedForwardBackward runs the reference layer and every rank's shard
// over the same x and dY, returning the reference and per-rank outputs
// and input gradients.
func slicedForwardBackward(t *testing.T, m int, seed uint64, causal bool) (ref *nn.EncoderLayer, layers []*SlicedLayer, want, wantDX *tensor.Tensor, got, gotDX []*tensor.Tensor) {
	t.Helper()
	ref, groups, layers := slicedWorld(t, m, causal)
	r := tensor.NewRNG(seed)
	b, n := 2, 5
	x := tensor.New(b*n, 16)
	x.FillUniform(r, -1, 1)
	dY := tensor.New(b*n, 16)
	dY.FillUniform(r, -1, 1)

	refCtx := evalCtx()
	want = ref.Forward(refCtx, x, b, n, nil)
	wantDX = ref.Backward(refCtx, dY)

	got = make([]*tensor.Tensor, m)
	gotDX = make([]*tensor.Tensor, m)
	runCollective(t, groups, func(g *Group) error {
		i, ctx := g.Rank(), evalCtx()
		var err error
		if got[i], err = layers[i].Forward(ctx, x, b, n); err != nil {
			return err
		}
		gotDX[i], err = layers[i].Backward(ctx, dY)
		return err
	})
	return ref, layers, want, wantDX, got, gotDX
}

func TestSlicedLayerForwardMatchesReference(t *testing.T) {
	for _, c := range sliceCases {
		m := c.m
		_, _, want, _, got, _ := slicedForwardBackward(t, m, 2, c.causal)
		for i := range got {
			if d := maxDiff(want.Data(), got[i].Data()); d > sliceTol(m) {
				t.Fatalf("m=%d causal=%v rank %d: sliced forward differs from reference by %v", m, c.causal, i, d)
			}
			// The AllReduces leave identical sums everywhere, so the
			// replicated tail makes every rank's output the same bits.
			for j, v := range got[i].Data() {
				if v != got[0].Data()[j] {
					t.Fatalf("m=%d: rank %d output[%d] = %v, rank 0 has %v", m, i, j, v, got[0].Data()[j])
				}
			}
		}
	}
}

func TestSlicedLayerBackwardMatchesReference(t *testing.T) {
	for _, c := range sliceCases {
		_, _, _, wantDX, _, gotDX := slicedForwardBackward(t, c.m, 3, c.causal)
		for i := range gotDX {
			if d := maxDiff(wantDX.Data(), gotDX[i].Data()); d > sliceTol(c.m) {
				t.Fatalf("m=%d causal=%v rank %d: sliced dX differs from reference by %v", c.m, c.causal, i, d)
			}
		}
	}
}

// Each rank's weight gradients equal the corresponding slice of the
// unsliced layer's gradients — the property that lets each device update
// only its parameter shard (Takeaway 12).
func TestSlicedLayerWeightGradientsMatchSlices(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		ref, layers, _, _, _, _ := slicedForwardBackward(t, m, 4, false)
		dm, ffm, tol := 16/m, 32/m, sliceTol(m)
		for w, s := range layers {
			// Column-parallel Q and FC-1: rank w's rows of the reference.
			for r := 0; r < dm; r++ {
				if d := maxDiff(ref.Attn.Wq.W.Grad.Row(w*dm+r), s.shard.Attn.Wq.W.Grad.Row(r)); d > tol {
					t.Fatalf("m=%d rank %d Wq grad row %d differs by %v", m, w, r, d)
				}
			}
			for r := 0; r < ffm; r++ {
				if d := maxDiff(ref.FF.FC1.W.Grad.Row(w*ffm+r), s.shard.FF.FC1.W.Grad.Row(r)); d > tol {
					t.Fatalf("m=%d rank %d FC1 grad row %d differs by %v", m, w, r, d)
				}
			}
			// Row-parallel output projection: rank w's columns.
			for r := 0; r < 16; r++ {
				if d := maxDiff(ref.Attn.Wo.W.Grad.Row(r)[w*dm:(w+1)*dm], s.shard.Attn.Wo.W.Grad.Row(r)); d > tol {
					t.Fatalf("m=%d rank %d Wo grad row %d differs by %v", m, w, r, d)
				}
			}
			// Replicated LayerNorm gradients match the reference.
			if d := maxDiff(ref.FFLN.Gamma.Grad.Data(), s.shard.FFLN.Gamma.Grad.Data()); d > tol {
				t.Fatalf("m=%d rank %d replicated LN gamma grad differs by %v", m, w, d)
			}
		}
	}
}

// Row-parallel shards add partial sums, so a replicated bias would be
// counted m times: rank 0 carries the reference bias, every other rank a
// zero one.
func TestSlicedLayerBiasCountedOnce(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		ref, _, layers := slicedWorld(t, m, false)
		for w, s := range layers {
			for _, p := range []struct {
				name      string
				got, want []float32
			}{
				{"Wo", s.shard.Attn.Wo.B.Value.Data(), ref.Attn.Wo.B.Value.Data()},
				{"FC2", s.shard.FF.FC2.B.Value.Data(), ref.FF.FC2.B.Value.Data()},
			} {
				for j, v := range p.got {
					if want := p.want[j]; (w == 0 && v != want) || (w > 0 && v != 0) {
						t.Fatalf("m=%d rank %d %s bias[%d] = %v (reference %v); only rank 0 may carry it",
							m, w, p.name, j, v, want)
					}
				}
			}
		}
	}
}

func TestSlicedLayerRejectsBadSplit(t *testing.T) {
	ref := nn.NewEncoderLayer("ref", 16, 4, 32, 0, tensor.NewRNG(5))
	groups := joinWorld(t, 3, 10*time.Second)
	if _, err := NewSlicedLayer(groups[0], ref); err == nil {
		t.Fatal("3-way split of 4 heads must error")
	}
}
