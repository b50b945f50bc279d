package optim

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// widthPools holds the test binary's kernel pool of each width under test,
// built on first use: like every pool, it lives as long as the process.
var (
	widthPoolsMu sync.Mutex
	widthPools   = map[int]*kernels.Pool{}
)

// poolOf returns the test binary's kernel pool of width w.
func poolOf(w int) *kernels.Pool {
	widthPoolsMu.Lock()
	defer widthPoolsMu.Unlock()
	if widthPools[w] == nil {
		widthPools[w] = kernels.NewPool(w)
	}
	return widthPools[w]
}

func makeParam(name string, r *tensor.RNG, shape ...int) *nn.Param {
	p := nn.NewParam(name, shape...)
	p.Value.FillUniform(r, -1, 1)
	p.Grad.FillUniform(r, -0.1, 0.1)
	return p
}

func TestLAMBFirstStepClosedForm(t *testing.T) {
	// Single scalar parameter, no weight decay, no clipping: after one
	// step m̂ = g, v̂ = g², so the raw update is sign(g)/(1+eps·/|g|)≈1,
	// and the trust ratio is |w|/|update|; w' = w - lr·|w|·sign(g).
	p := nn.NewParam("w", 1)
	p.Value.Data()[0] = 2
	p.Grad.Data()[0] = 0.5
	o := NewLAMB(0.1)
	o.WeightDecay = 0
	o.ClipNorm = 0
	o.Step(nn.NewCtx(1), []*nn.Param{p})
	// update ≈ 0.5/(0.5+eps) ≈ 1; trust = |2|/1 = 2; w' = 2 - 0.1*2*1.
	want := 2 - 0.1*2*1.0
	if got := float64(p.Value.Data()[0]); math.Abs(got-want) > 1e-3 {
		t.Fatalf("LAMB first step w = %v, want ~%v", got, want)
	}
	if o.step != 1 {
		t.Fatalf("step count = %d", o.step)
	}
}

func TestLAMBMomentumAccumulates(t *testing.T) {
	r := tensor.NewRNG(1)
	p := makeParam("w", r, 16)
	o := NewLAMB(0.01)
	ctx := nn.NewCtx(1)
	o.Step(ctx, []*nn.Param{p})
	m1, _ := o.State(p)
	first := append([]float32(nil), m1.Data()...)
	o.Step(ctx, []*nn.Param{p})
	m2, _ := o.State(p)
	same := true
	for i := range first {
		if m2.Data()[i] != first[i] {
			same = false
		}
	}
	if same {
		t.Fatal("momentum did not change across steps")
	}
}

func TestLAMBGradientClipping(t *testing.T) {
	// With a huge gradient and ClipNorm=1, the effective gradient is
	// normalized; the step must be bounded by lr·trust regardless of
	// gradient magnitude.
	p := nn.NewParam("w", 4)
	p.Value.Fill(1)
	p.Grad.Fill(1e6)
	o := NewLAMB(0.1)
	o.WeightDecay = 0
	before := append([]float32(nil), p.Value.Data()...)
	o.Step(nn.NewCtx(1), []*nn.Param{p})
	for i := range before {
		delta := math.Abs(float64(before[i] - p.Value.Data()[i]))
		if delta > 0.3 {
			t.Fatalf("clipped LAMB step moved weight by %v", delta)
		}
	}
}

func TestLAMBZeroGradientNoNaN(t *testing.T) {
	p := nn.NewParam("w", 4)
	p.Value.Fill(1)
	o := NewLAMB(0.1)
	o.Step(nn.NewCtx(1), []*nn.Param{p})
	for _, v := range p.Value.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("zero-gradient step produced %v", v)
		}
	}
}

func TestLAMBProfileCategories(t *testing.T) {
	r := tensor.NewRNG(2)
	params := []*nn.Param{makeParam("a", r, 64), makeParam("b", r, 32)}
	ctx := nn.NewCtx(1)
	NewLAMB(0.01).Step(ctx, params)
	sum := ctx.Prof.Summarize()
	s1 := sum.ByCategory[profile.CatLAMBStage1]
	s2 := sum.ByCategory[profile.CatLAMBStage2]
	// Global norm + one stage-1 kernel per tensor; one stage-2 per tensor.
	if s1.Kernels != 3 {
		t.Fatalf("stage-1 kernels = %d, want 3 (norm + 2 tensors)", s1.Kernels)
	}
	if s2.Kernels != 2 {
		t.Fatalf("stage-2 kernels = %d, want 2", s2.Kernels)
	}
	// Takeaway 7: stage 1 reads 4× model size. Total model = 96 elems.
	wantS1Read := int64(96) * 4 * 4 // elems × arrays × bytes
	if s1.Bytes < wantS1Read {
		t.Fatalf("stage-1 bytes %d below the 4×-model-size read volume %d", s1.Bytes, wantS1Read)
	}
	if sum.ByPhase[profile.Update].Kernels != sum.Total.Kernels {
		t.Fatal("all LAMB kernels must be Update phase")
	}
}

func TestLAMBReadsFourTimesModelSize(t *testing.T) {
	// The paper's Takeaway 7 verbatim: LAMB reads data worth 4× the model
	// size in stage 1 (g, m, v, w).
	r := tensor.NewRNG(3)
	params := []*nn.Param{makeParam("a", r, 1000)}
	ctx := nn.NewCtx(1)
	NewLAMB(0.01).Step(ctx, params)
	var stage1Bytes int64
	for _, e := range ctx.Prof.Events() {
		if e.Kernel == "lamb_stage1" {
			stage1Bytes += e.Bytes
		}
	}
	modelBytes := int64(1000 * 4)
	reads := stage1Bytes - 3*modelBytes // subtract the 3 written arrays
	if reads != 4*modelBytes {
		t.Fatalf("stage-1 reads %d bytes, want exactly 4× model size %d", reads, 4*modelBytes)
	}
}

func TestLAMBConvergesOnQuadratic(t *testing.T) {
	p := nn.NewParam("w", 8)
	p.Value.Fill(1)
	o := NewLAMB(0.02)
	o.WeightDecay = 0
	ctx := nn.NewCtx(1)
	for i := 0; i < 200; i++ {
		copy(p.Grad.Data(), p.Value.Data())
		o.Step(ctx, []*nn.Param{p})
	}
	for _, v := range p.Value.Data() {
		if math.Abs(float64(v)) > 0.5 {
			t.Fatalf("LAMB failed to shrink weight: %v", v)
		}
	}
}

// TestOptimizersBitwiseAcrossWorkers: LAMB's update loops run as pooled
// element ranges, and where the ranges are cut must not show. Three steps
// leave bitwise the same weights, m and v at any worker count. The
// tensors sit on both sides of the pool's inline threshold, and one has a
// length no chunking divides.
func TestOptimizersBitwiseAcrossWorkers(t *testing.T) {
	// run returns every weight, m and v after three steps at w workers.
	run := func(w int) []float32 {
		r := tensor.NewRNG(7)
		params := []*nn.Param{
			makeParam("bias", r, 256),
			makeParam("w", r, 96, 96),
			makeParam("odd", r, 10007),
		}
		o := NewLAMB(0.01)
		ctx := nn.NewCtx(1)
		ctx.Pool = poolOf(w)
		for step := 0; step < 3; step++ {
			fillGrads(r, params)
			o.Step(ctx, params)
		}
		var out []float32
		for _, p := range params {
			m, v := o.State(p)
			out = append(out, p.Value.Data()...)
			out = append(out, m.Data()...)
			out = append(out, v.Data()...)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		got := run(w)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("workers=%d differs from workers=1 at element %d: %v vs %v", w, i, got[i], want[i])
			}
		}
	}
}
