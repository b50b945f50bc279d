package audit

import (
	"runtime"
	"strings"
	"testing"

	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// TestModeMatrix differential-tests every subject through the execution-
// mode cross product against its naive/serial oracle. `-short` (used by
// the race leg of scripts/check.sh) runs the reduced matrix.
func TestModeMatrix(t *testing.T) {
	for _, s := range Subjects() {
		t.Run(s.Name, func(t *testing.T) {
			ms := Modes(s, testing.Short())
			oracles := oracleTraces(s, ms)
			forEachMode(t, ms, func(m Mode) []Divergence { return checkMode(s, m, oracles) })
		})
	}
}

// TestGradCheck compares analytic gradients against central differences
// on sampled coordinates, once per GEMM path.
func TestGradCheck(t *testing.T) {
	for _, s := range Subjects() {
		if s.GradCheck == nil {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			modes := GradModes(s)
			if testing.Short() {
				modes = modes[:1]
			}
			forEachMode(t, modes, s.GradCheck)
		})
	}
}

// TestDeterminism pins fixed-seed reproducibility: identical seed and
// worker count must give bitwise-identical results — 3-step LAMB loss
// trajectories and final parameters for the step subjects, whole
// forward+backward traces for the module subjects.
func TestDeterminism(t *testing.T) {
	for _, s := range Subjects() {
		t.Run(s.Name, func(t *testing.T) {
			forEachMode(t, DeterminismModes(testing.Short()), func(m Mode) []Divergence { return CheckDeterminism(s, m) })
		})
	}
}

// TestFastPathEquivalence pins the bitwise agreement of the two forced
// engine routes, fused ≡ blocked, which holds only if both packed ≡ blocked
// (pre-packed panels are byte-identical to per-call packing) and fused ≡
// unfused (the epilogue write-back repeats the reference tail's float
// expressions) do.
func TestFastPathEquivalence(t *testing.T) {
	workers := []int{1, runtime.GOMAXPROCS(0)}
	if testing.Short() {
		workers = workers[:1]
	}
	for _, s := range Subjects() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, w := range workers {
				for _, d := range CheckFastPathEquivalence(s, w) {
					t.Errorf("%s", d)
				}
			}
		})
	}
}

// TestAnalyticModels pins reproducibility of the analytical side
// (opgraph builder, fusion studies).
func TestAnalyticModels(t *testing.T) {
	for _, d := range CheckAnalyticModels() {
		t.Errorf("%s", d)
	}
}

// TestMatrixDimensions asserts the harness really enumerates ≥4 mode
// dimensions for the richest subject, so a refactor can't silently
// collapse the matrix.
func TestMatrixDimensions(t *testing.T) {
	var bert *Subject
	for _, s := range Subjects() {
		if s.Name == "bert.step" {
			bert = s
		}
	}
	if bert == nil {
		t.Fatal("bert.step subject missing")
	}
	ms := Modes(bert, false)
	paths := map[kernels.GEMMPath]bool{}
	workers := map[int]bool{}
	var mp, ckpt, fused bool
	for _, m := range ms {
		paths[m.Path] = true
		workers[m.Workers] = true
		mp = mp || m.MP
		ckpt = ckpt || m.Ckpt
		fused = fused || m.Fused
	}
	if len(paths) != 4 || !paths[kernels.GEMMPathAuto] {
		t.Errorf("GEMM routes enumerated: %v, want 4 (naive/blocked/fused/auto)", paths)
	}
	wantW := len(dedupInts([]int{1, 2, runtime.GOMAXPROCS(0)}))
	if len(workers) != wantW {
		t.Errorf("worker widths enumerated: %d, want %d", len(workers), wantW)
	}
	// 4 routes × widths × mp{2} × ckpt{2} × fused{2}: 64 on the 2-vCPU
	// reference host.
	if want := 4 * wantW * 8; len(ms) != want {
		t.Errorf("bert.step matrix has %d modes, want %d", len(ms), want)
	}
	if !mp || !ckpt || !fused {
		t.Errorf("dimension missing from matrix: mp=%v ckpt=%v fused=%v", mp, ckpt, fused)
	}
}

// mutationSubjects builds bias-perturbed variants of the linear and
// eval-mode encoder subjects for the mutation test below. The production
// modules zero-initialize their biases, and a multiplicative fault on a
// zero bias is invisible — the roster subjects would make the mutation
// test vacuously green. With fault set, every route but the naive oracle
// computes with its biases scaled 1.5× — a stand-in for a fast path whose
// bias handling is broken.
func mutationSubjects(fault bool) []*Subject {
	skew := func(m Mode, params []*nn.Param) {
		seed := uint64(weightSeed + 2)
		for _, p := range params {
			if !strings.HasSuffix(p.Name, ".bias") {
				continue
			}
			fillInput(p.Value, seed)
			seed++
			if fault && m.Path != kernels.GEMMPathNaive {
				m.pool().Scale(p.Value.Data(), p.Value.Data(), 1.5)
			}
		}
	}
	lin := moduleSubject("linear.biased", false, func(m Mode) *modInstance {
		rng := tensor.NewRNG(weightSeed)
		l := nn.NewLinear("audit.linb", linIn, linOut, profile.CatLinear, rng)
		skew(m, l.Params())
		x := tensor.New(linTokens, linIn)
		fillInput(x, dataSeed)
		dY := tensor.New(linTokens, linOut)
		fillInput(dY, dataSeed+1)
		return &modInstance{
			forward:  func(ctx *nn.Ctx) *tensor.Tensor { return l.Forward(ctx, x) },
			backward: func(ctx *nn.Ctx, g *tensor.Tensor) *tensor.Tensor { return l.Backward(ctx, g) },
			params:   l.Params(), x: x, dY: dY,
		}
	})
	enc := &Subject{Name: "encoder.eval.biased", HasAttention: true}
	enc.Run = func(m Mode) *Trace {
		rng := tensor.NewRNG(weightSeed)
		e := nn.NewEncoderLayer("audit.encb", encDModel, encHeads, encDFF, 0.1, rng)
		skew(m, e.Params())
		mask := paddingMask(encB, encN)
		x := tensor.New(encB*encN, encDModel)
		fillInput(x, dataSeed)
		ctx := m.ctx()
		ctx.Train = false
		y := e.Forward(ctx, x, encB, encN, mask)
		tr := newTrace()
		tr.add("out", y.Data())
		return tr
	}
	return []*Subject{lin, enc}
}

// TestHarnessCatchesBrokenEpilogue is the harness's own mutation test: a
// subject whose fast routes add a 1.5×-skewed bias while its naive oracle
// stays honest must be flagged in every non-oracle route. A harness that
// stays green under a deliberately broken fast path would be decorative.
func TestHarnessCatchesBrokenEpilogue(t *testing.T) {
	modes := []Mode{
		{Path: kernels.GEMMPathFused, Workers: 1},
		{Path: kernels.GEMMPathAuto, Workers: 1},
	}
	for _, s := range mutationSubjects(true) {
		for _, m := range modes {
			if divs := RunModes(s, []Mode{m}); len(divs) == 0 {
				t.Errorf("%s [%s]: harness failed to flag a 1.5x-skewed bias", s.Name, m)
			}
		}
	}
	// Without the fault the same subjects and modes must be green, proving
	// the failures above came from the injected fault alone.
	for _, s := range mutationSubjects(false) {
		for _, d := range RunModes(s, modes) {
			t.Errorf("without the fault: %s", d)
		}
	}
}

// TestOracleDefinition pins the oracle construction: naive path, one
// worker, matching MP, everything else off.
func TestOracleDefinition(t *testing.T) {
	m := Mode{Path: kernels.GEMMPathAuto, Workers: 7, MP: true, Ckpt: true, Fused: true}
	o := m.Oracle()
	want := Mode{Path: kernels.GEMMPathNaive, Workers: 1, MP: true}
	if o != want {
		t.Fatalf("oracle of %v = %v, want %v", m, o, want)
	}
	if !o.Oracle().IsOracle() {
		t.Fatal("oracle must be its own oracle")
	}
}
