package optim

import (
	"math"
	"runtime"
	"testing"

	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/tensor"
)

// lambTestParams is a small model's worth of tensors on both sides of the
// pool's inline threshold: sub-block vectors, one block exactly, several
// blocks with a ragged end, and an all-zero tensor (‖w‖ = 0 on the first
// step, so its trust ratio falls back to 1).
func lambTestParams(seed uint64) []*nn.Param {
	r := tensor.NewRNG(seed)
	ps := []*nn.Param{
		makeParam("ln", r, 7),
		makeParam("bias", r, 300),
		makeParam("block", r, 4096),
		makeParam("w", r, 129, 97),
		makeParam("emb", r, 211, 256),
		nn.NewParam("zero", 40),
	}
	return ps
}

// lambSnapshot flattens every weight, m and v of params. The update
// direction is scratch that the next tensor overwrites; the weights carry
// it.
func lambSnapshot(o *LAMB, params []*nn.Param) []float32 {
	var out []float32
	for _, p := range params {
		m, v := o.State(p)
		out = append(out, p.Value.Data()...)
		out = append(out, m.Data()...)
		out = append(out, v.Data()...)
	}
	return out
}

func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestLAMBTrajectoryWorkerInvariant: five LAMB steps leave bitwise the
// same parameters and optimizer state at 1, 2 and GOMAXPROCS workers. The
// float64 norms used to be partial sums whose grain depended on the pool
// width, which made a LAMB trajectory reproducible per width only; the
// fixed fold (Pool.SumSquares) removed that dependence.
func TestLAMBTrajectoryWorkerInvariant(t *testing.T) {
	run := func(workers int) []float32 {
		params := lambTestParams(51)
		o := NewLAMB(0.01)
		o.ClipNorm = 0.5 // below the gradient norm: the global fold matters too
		ctx := &nn.Ctx{Pool: poolOf(workers)}
		gr := tensor.NewRNG(52)
		for step := 0; step < 5; step++ {
			fillGrads(gr, params)
			o.Step(ctx, params)
		}
		return lambSnapshot(o, params)
	}
	want := run(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0), 5} {
		if i := firstBitDiff(run(w), want); i >= 0 {
			t.Fatalf("workers=%d differs from workers=1 at flattened element %d", w, i)
		}
	}
}

// fivePassLAMBStep is the body LAMB.Step had before it became two sweeps,
// kept as the oracle: ‖g‖, stage 1 over every tensor, then per tensor ‖w‖,
// ‖u‖ and the apply — five passes, with the arithmetic written the way the
// compiler was then free to contract.
func fivePassLAMBStep(o *LAMB, params []*nn.Param) {
	var process *kernels.Pool // nil: the process pool
	o.step++
	var ss float64
	for _, p := range params {
		ss += process.SumSquares(p.Grad.Data())
	}
	var gradScale float32 = 1
	if norm := math.Sqrt(ss); o.ClipNorm > 0 && norm > o.ClipNorm {
		gradScale = float32(o.ClipNorm / norm)
	}
	bc1 := 1 - float32(math.Pow(float64(o.Beta1), float64(o.step)))
	bc2 := 1 - float32(math.Pow(float64(o.Beta2), float64(o.step)))
	updates := make(map[*nn.Param][]float32, len(params))
	for _, p := range params {
		m, v := o.State(p)
		updates[p] = make([]float32, p.Size())
		md, vd, gd, wd, ud := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data(), updates[p]
		for i := range gd {
			g := gd[i] * gradScale
			md[i] = o.Beta1*md[i] + (1-o.Beta1)*g
			vd[i] = o.Beta2*vd[i] + (1-o.Beta2)*g*g
			mh := md[i] / bc1
			vh := vd[i] / bc2
			ud[i] = mh/(float32(math.Sqrt(float64(vh)))+o.Eps) + o.WeightDecay*wd[i]
		}
	}
	for _, p := range params {
		wd, ud := p.Value.Data(), updates[p]
		wNorm := math.Sqrt(process.SumSquares(wd))
		uNorm := math.Sqrt(process.SumSquares(ud))
		trust := float32(1)
		if wNorm > 0 && uNorm > 0 {
			trust = float32(wNorm / uNorm)
		}
		step := o.LR * trust
		for i := range wd {
			wd[i] -= step * ud[i]
		}
	}
}

// TestLAMBStepBitwiseMatchesFivePass: three steps of the two-sweep Step
// leave m, v and the weights bitwise where the five-pass body leaves them, with the clip active and inactive.
func TestLAMBStepBitwiseMatchesFivePass(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Where the compiler fuses multiply-adds the five-pass body above
		// computes different last bits than amd64 — the portability bug
		// the explicit roundings in Pool.LAMBStage1 fixed.
		t.Skip("the unrounded five-pass body is the reference only where the compiler does not fuse")
	}
	for _, clip := range []float64{0, 1e6, 0.25} {
		got, want := lambTestParams(53), lambTestParams(53)
		og, ow := NewLAMB(0.01), NewLAMB(0.01)
		og.ClipNorm, ow.ClipNorm = clip, clip
		ctx := &nn.Ctx{}
		gr := tensor.NewRNG(54)
		for step := 0; step < 3; step++ {
			fillGrads(gr, got, want)
			og.Step(ctx, got)
			fivePassLAMBStep(ow, want)
			if i := firstBitDiff(lambSnapshot(og, got), lambSnapshot(ow, want)); i >= 0 {
				t.Fatalf("clip %g, step %d: two-sweep Step differs from the five-pass body at flattened element %d", clip, step, i)
			}
		}
	}
}

// TestLAMBStepZeroAllocs: once m, v and the update scratch exist, a step
// allocates nothing — the sweeps dispatch through pooled bodies, and the
// norms travel from stage 1 to stage 2 in locals, not in a map.
func TestLAMBStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	params := lambTestParams(55)
	o := NewLAMB(0.01)
	ctx := &nn.Ctx{} // no profiler: recording an event appends to a slice
	o.Step(ctx, params)
	o.Step(ctx, params)
	if n := testing.AllocsPerRun(20, func() { o.Step(ctx, params) }); n != 0 {
		t.Fatalf("steady-state LAMB.Step allocates %v times, want 0", n)
	}
}
