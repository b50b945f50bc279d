package audit

import (
	"fmt"
	"math"

	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/tensor"
)

// Central-difference gradient checking. For module subjects the scalar
// objective is the surrogate loss L = Σ dY·y (whose exact gradient w.r.t.
// any leaf is the analytic backward pass applied to upstream gradient dY);
// for step subjects it is the real training loss. Every evaluation builds
// a fresh context from the same seed, so dropout masks replay identically
// and the objective is a deterministic function of the parameters.
//
// Gradcheck is skipped under mixed precision: binary16 quantization makes
// the objective a staircase whose central differences measure the
// quantizer, not the gradient.
const (
	// gradEps is the relative half-step. float32 forward noise is ~1e-7
	// relative, so eps must be large enough that (L+ − L−) is dominated
	// by signal; 1e-2 balances that against O(eps²) truncation.
	gradEps = 1e-2
	// gradSamples coordinates are probed per tensor.
	gradSamples = 4
)

// gradTol bounds |analytic − numeric|: float32 forward noise divided by
// the step (≈1e-5/1e-2) sets the absolute floor; truncation error scales
// with the gradient itself and sets the relative part.
var gradTol = Tol{Abs: 1e-2, Rel: 2e-2}

func dot64(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// checkCoords probes sampled coordinates of buf, comparing grad[i] against
// the central difference of eval. bump is called after every mutation of
// buf (parameters must invalidate their pack caches; inputs pass a no-op).
func checkCoords(subject string, m Mode, tname string, buf, grad []float32,
	bump func(), eval func() float64, rng *tensor.RNG) []Divergence {
	var divs []Divergence
	for c := 0; c < gradSamples; c++ {
		i := rng.Intn(len(buf))
		orig := buf[i]
		eps := float32(gradEps) * max(1, float32(math.Abs(float64(orig))))
		buf[i] = orig + eps
		bump()
		hi := buf[i]
		lp := eval()
		buf[i] = orig - eps
		bump()
		lo := buf[i]
		lm := eval()
		buf[i] = orig
		bump()
		// Divide by the actually-realized float32 step, not 2·eps.
		num := (lp - lm) / (float64(hi) - float64(lo))
		ana := float64(grad[i])
		diff := math.Abs(ana - num)
		if diff > gradTol.Abs+gradTol.Rel*math.Max(math.Abs(ana), math.Abs(num)) {
			divs = append(divs, Divergence{subject, m, "gradcheck", tname,
				fmt.Sprintf("coord %d: analytic %.6g vs central-diff %.6g (|Δ|=%.3g)", i, ana, num, diff)})
		}
	}
	return divs
}

// gradCheckModule checks a module instance's input gradient and every
// parameter gradient under mode m.
func gradCheckModule(subject string, m Mode, inst *modInstance) []Divergence {
	if m.MP {
		return nil
	}
	restore := m.apply()
	defer restore()

	ctx := m.ctx()
	inst.forward(ctx)
	for _, p := range inst.params {
		p.ZeroGrad()
	}
	dx := inst.backward(ctx, inst.dY)

	eval := func() float64 {
		y := inst.forward(m.ctx())
		return dot64(inst.dY.Data(), y.Data())
	}
	rng := tensor.NewRNG(4242)
	divs := checkCoords(subject, m, "dx", inst.x.Data(), dx.Data(), func() {}, eval, rng)
	for _, p := range inst.params {
		divs = append(divs, checkCoords(subject, m, "grad:"+p.Name,
			p.Value.Data(), p.Grad.Data(), p.BumpGen, eval, rng)...)
	}
	return divs
}

// gradCheckLoss checks parameter gradients of a real-loss subject:
// analytic runs forward+backward populating grads, loss evaluates the
// objective at the current parameters.
func gradCheckLoss(subject string, m Mode, params []*nn.Param,
	loss func() float64, analytic func()) []Divergence {
	if m.MP {
		return nil
	}
	restore := m.apply()
	defer restore()

	analytic()
	rng := tensor.NewRNG(4242)
	var divs []Divergence
	for _, p := range params {
		divs = append(divs, checkCoords(subject, m, "grad:"+p.Name,
			p.Value.Data(), p.Grad.Data(), p.BumpGen, loss, rng)...)
	}
	return divs
}

// GradModes returns the reduced mode list gradchecking runs at: one mode
// per GEMM route (finite differences validate analytic-vs-numeric per
// implementation; the worker dimension is already pinned bitwise by the
// oracle comparison), with softmax fusion exercised on production's auto
// routing. MP modes are deliberately excluded: binary16 storage makes the
// loss a step function of the parameters, so central differences measure
// the quantizer's staircase, not the gradient.
func GradModes(s *Subject) []Mode {
	return []Mode{
		{Path: kernels.GEMMPathNaive, Workers: 1},
		{Path: kernels.GEMMPathBlocked, Workers: 1},
		{Path: kernels.GEMMPathFused, Workers: 1},
		{Path: kernels.GEMMPathAuto, Workers: 2, Fused: s.HasAttention},
	}
}
