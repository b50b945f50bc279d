// Package audit is a differential correctness harness for the engine's
// semantically-equivalent execution paths. The same math is implemented
// many ways — naive vs blocked vs fused vs size-routed GEMM, 1..N pool
// workers, FP32 vs mixed-precision storage, stored vs checkpointed
// activations — and their mutual
// agreement was previously only spot-checked per kernel. The harness runs
// whole modules (each nn layer, the full encoder block, BERT.Step,
// FineTuner.Step) forward+backward through the cross-product of execution
// modes and asserts, per mode:
//
//   - forward outputs and gradients are bitwise-equal to the naive/serial
//     oracle, or within a stated per-path tolerance (MLPerf-style
//     reference checking);
//   - analytic gradients match central-difference gradients on sampled
//     coordinates (gradcheck_test.go);
//   - fixed seed + fixed worker count ⇒ bitwise-identical loss
//     trajectories over repeated multi-step runs (determinism_test.go).
//
// Tolerances per dimension are stated in DESIGN.md §10 together with the
// rationale for each. A tolerance of zero means bitwise. The harness is
// test code only: `go test ./internal/audit/` runs it.
package audit

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"demystbert/internal/kernels"
	"demystbert/internal/nn"
)

// Mode is one point in the execution-mode cross product.
type Mode struct {
	// Path is the GEMM route of every context the mode builds
	// (nn.Ctx.Route; GEMMPathAuto: production's own per-call routing).
	Path kernels.GEMMPath
	// Workers is the width of the kernel pool every context the mode
	// builds runs on (nn.Ctx.Pool; poolOf).
	Workers int
	// MP enables mixed-precision activation storage (nn.Ctx.MixedPrecision).
	MP bool
	// Ckpt enables activation checkpointing (BERT.CheckpointEvery=1);
	// ignored by subjects without a checkpointing path.
	Ckpt bool
	// Fused names the attention-score dimension the matrix enumerates
	// for subjects with attention. The engine has one scale/mask/softmax
	// pass, so it selects nothing: a fused=true mode runs what its
	// fused=false twin runs. It stays in the matrix because the audit's
	// subtests are named after it (DESIGN.md §10).
	Fused bool
}

func (m Mode) String() string {
	return fmt.Sprintf("path=%s/w=%d/mp=%v/ckpt=%v/fused=%v",
		m.Path, m.Workers, m.MP, m.Ckpt, m.Fused)
}

// Oracle returns the reference mode this mode is differenced against: the
// naive GEMM loops on one worker with every fast-path feature off, but the
// SAME mixed-precision setting — MP changes the function being computed
// (outputs are quantized through binary16), so an MP mode's oracle must
// quantize identically or every comparison would just measure
// quantization. A separate loose FP32-vs-MP sanity check is done by
// RunModes when m.MP is set.
func (m Mode) Oracle() Mode {
	return Mode{Path: kernels.GEMMPathNaive, Workers: 1, MP: m.MP}
}

// IsOracle reports whether the mode is its own oracle.
func (m Mode) IsOracle() bool { return m == m.Oracle() }

// widthPools holds the test binary's kernel pool of each width a mode
// runs at, built on first use: like every pool, it lives as long as the
// process. A mode changes no process state, so modes run side by side.
var (
	widthPoolsMu sync.Mutex
	widthPools   = map[int]*kernels.Pool{}
)

// pool returns the kernel pool of the mode's width.
func (m Mode) pool() *kernels.Pool {
	widthPoolsMu.Lock()
	defer widthPoolsMu.Unlock()
	if widthPools[m.Workers] == nil {
		widthPools[m.Workers] = kernels.NewPool(m.Workers)
	}
	return widthPools[m.Workers]
}

// ctx returns a fresh training context carrying the mode's route, pool and
// numeric settings, seeded like every other audit context. Every context a
// mode runs on must come from here: one built any other way runs auto on
// the process pool, which at audit sizes is bitwise the naive oracle.
// Ckpt comes from each subject's runner.
func (m Mode) ctx() *nn.Ctx {
	c := nn.NewCtx(ctxSeed)
	c.Route = m.Path
	c.Pool = m.pool()
	c.MixedPrecision = m.MP
	return c
}

// forEachMode runs check for every mode of ms as a parallel subtest named
// after the mode.
func forEachMode(t *testing.T, ms []Mode, check func(m Mode) []Divergence) {
	for _, m := range ms {
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			for _, d := range check(m) {
				t.Errorf("%s", d)
			}
		})
	}
}

// routes are the GEMM routes every mode list is built from: the oracle,
// the two forced engine routes, and production's own routing.
var routes = []kernels.GEMMPath{
	kernels.GEMMPathNaive,
	kernels.GEMMPathBlocked,
	kernels.GEMMPathFused,
	kernels.GEMMPathAuto,
}

// Modes enumerates the cross product for a subject. Worker counts are
// {1, 2, GOMAXPROCS} deduplicated; dimensions the subject does not have
// (Fused without attention, checkpointing without a checkpoint path) are
// pinned to false rather than enumerated. Fused is the one aliased
// dimension: its twins are duplicates (see Mode.Fused).
func Modes(s *Subject, quick bool) []Mode {
	workers := dedupInts([]int{1, 2, runtime.GOMAXPROCS(0)})
	mps := []bool{false, true}
	ckpts := []bool{false}
	if s.HasCkpt {
		ckpts = []bool{false, true}
	}
	fuseds := []bool{false}
	if s.HasAttention {
		fuseds = []bool{false, true}
	}
	if quick {
		// Reduced matrix for race runs and -short: keep every value of
		// every dimension represented, drop the full cross product.
		workers = dedupInts([]int{1, runtime.GOMAXPROCS(0)})
		mps = []bool{false}
	}
	var ms []Mode
	for _, p := range routes {
		for _, w := range workers {
			for _, mp := range mps {
				for _, ck := range ckpts {
					for _, fu := range fuseds {
						ms = append(ms, Mode{Path: p, Workers: w, MP: mp, Ckpt: ck, Fused: fu})
					}
				}
			}
		}
	}
	return ms
}

func dedupInts(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// Tol is a combined absolute/relative tolerance; the zero value means
// bitwise equality.
type Tol struct {
	Abs, Rel float64
}

func (t Tol) zero() bool { return t.Abs == 0 && t.Rel == 0 }

func (t Tol) max(o Tol) Tol {
	return Tol{Abs: math.Max(t.Abs, o.Abs), Rel: math.Max(t.Rel, o.Rel)}
}

// Per-dimension tolerances (rationale in DESIGN.md §10).
var (
	// tolNaiveWorkers: the naive path partitions output rows disjointly
	// and computes each element in the identical serial order for any
	// worker count, so it must be bitwise at any width.
	tolNaiveWorkers = Tol{}
	// tolBlockedFwd: the blocked engine (forced, or chosen by auto routing)
	// accumulates each dot product in kc-sized partial sums with an
	// alpha-scaled packed A operand, a different float32 accumulation
	// order than the naive loops, so results differ by rounding. Forward
	// activations in the audit subjects stay O(1) with k ≤ 64.
	tolBlockedFwd = Tol{Abs: 1e-5, Rel: 1e-5}
	// tolBlockedGrad: gradients compose more GEMMs (dX and dW per
	// linear) and sum longer chains, so rounding differences compound.
	tolBlockedGrad = Tol{Abs: 1e-4, Rel: 1e-4}
	// tolMPAmplify: with MP storage every layer output is quantized to
	// binary16; a 1-ulp float32 path difference before the quantizer can
	// land on a different half, i.e. a 2^-11 relative step. Applied only
	// when the path already has nonzero tolerance (naive/worker modes
	// stay bitwise through the quantizer).
	tolMPAmplify = Tol{Abs: 2e-3, Rel: 2e-3}
	// tolMPSanity: the loose FP32-vs-MP forward check. ~2^-11 relative
	// per quantization, compounding across layers.
	tolMPSanity = Tol{Abs: 5e-2, Rel: 5e-2}
)

// tolerances returns the forward and gradient tolerances for comparing
// mode m against its oracle.
func tolerances(m Mode) (fwd, grad Tol) {
	if m.Path != kernels.GEMMPathNaive {
		fwd = fwd.max(tolBlockedFwd)
		grad = grad.max(tolBlockedGrad)
	}
	// Ckpt contributes zero: recomputed activations replay dropout masks
	// and must be bit-identical to the stored originals. Fused selects
	// nothing.
	if m.MP && !fwd.zero() {
		fwd = fwd.max(tolMPAmplify)
		grad = grad.max(tolMPAmplify)
	}
	return fwd, grad
}

// Trace is everything a subject run produces that semantics can be judged
// by: the forward outputs (plus input gradients) and every parameter
// gradient, keyed by name, and the scalar loss for step subjects.
type Trace struct {
	Loss    float64
	HasLoss bool
	Tensors map[string][]float32
}

func newTrace() *Trace { return &Trace{Tensors: map[string][]float32{}} }

func (tr *Trace) add(name string, data []float32) {
	cp := make([]float32, len(data))
	copy(cp, data)
	tr.Tensors[name] = cp
}

func (tr *Trace) sortedNames() []string {
	names := make([]string, 0, len(tr.Tensors))
	for n := range tr.Tensors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Divergence is one tolerance violation between a mode and its oracle.
type Divergence struct {
	Subject string
	Mode    Mode
	Kind    string // "forward", "grad", "gradcheck", "determinism", "mp-sanity"
	Tensor  string
	Detail  string
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s [%s] %s %s: %s", d.Subject, d.Mode, d.Kind, d.Tensor, d.Detail)
}

// compareTraces diffs a trace against the oracle trace and returns one
// divergence per out-of-tolerance tensor. Forward tensors (out/dx/loss)
// use fwd, parameter gradients use grad.
func compareTraces(subject string, m Mode, got, want *Trace, fwd, grad Tol) []Divergence {
	var divs []Divergence
	if got.HasLoss {
		if d := diffScalar(got.Loss, want.Loss, fwd); d != "" {
			divs = append(divs, Divergence{subject, m, "forward", "loss", d})
		}
	}
	for _, name := range want.sortedNames() {
		g, w := got.Tensors[name], want.Tensors[name]
		tol := fwd
		kind := "forward"
		if len(name) > 5 && name[:5] == "grad:" {
			tol, kind = grad, "grad"
		}
		if d := diffSlices(g, w, tol); d != "" {
			divs = append(divs, Divergence{subject, m, kind, name, d})
		}
	}
	return divs
}

// diffSlices reports the worst element-wise violation of tol, or "" when
// the slices agree. A zero tol demands bit equality (so ±0 and NaN
// patterns are distinguished too).
func diffSlices(got, want []float32, tol Tol) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d vs %d", len(got), len(want))
	}
	worst, worstIdx := 0.0, -1
	for i := range want {
		g, w := got[i], want[i]
		if tol.zero() {
			if math.Float32bits(g) != math.Float32bits(w) {
				return fmt.Sprintf("elem %d: %v (%#08x) != %v (%#08x), want bitwise",
					i, g, math.Float32bits(g), w, math.Float32bits(w))
			}
			continue
		}
		diff := math.Abs(float64(g) - float64(w))
		bound := tol.Abs + tol.Rel*math.Max(math.Abs(float64(g)), math.Abs(float64(w)))
		if diff > bound && diff-bound > worst {
			worst, worstIdx = diff-bound, i
		}
	}
	if worstIdx >= 0 {
		return fmt.Sprintf("elem %d: %v vs %v (|Δ|=%.3g, tol abs=%g rel=%g)",
			worstIdx, got[worstIdx], want[worstIdx], math.Abs(float64(got[worstIdx])-float64(want[worstIdx])), tol.Abs, tol.Rel)
	}
	return ""
}

func diffScalar(got, want float64, tol Tol) string {
	if tol.zero() {
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Sprintf("%v != %v, want bitwise", got, want)
		}
		return ""
	}
	diff := math.Abs(got - want)
	if diff > tol.Abs+tol.Rel*math.Max(math.Abs(got), math.Abs(want)) {
		return fmt.Sprintf("%v vs %v (|Δ|=%.3g, tol abs=%g rel=%g)", got, want, diff, tol.Abs, tol.Rel)
	}
	return ""
}

// CheckFastPathEquivalence pins the bitwise invariant between the two
// forced engine routes (a much stronger statement than the tolerance-based
// oracle comparison): fused ≡ blocked. The fused route differs from the
// blocked one in exactly two shortcuts, so equality implies both — packed
// ≡ blocked: the pre-packed engine hands the tile grid byte-identical
// micro-panels with the identical schedule, so skipping the per-call packB
// pass must not change a single bit — and fused ≡ unfused: the epilogue
// engine performs the tail's exact float expressions in the unfused order,
// so folding bias/GeLU/residual/LN into the write-back must not either
// (the headline numerics claim of the epilogue engine). Each half also has
// a kernel-level pin of its own (TestGEMMPackedBitwiseMatchesGEMM,
// TestGEMMPackedEpilogueFusedBitwiseUnfused).
func CheckFastPathEquivalence(s *Subject, workers int) []Divergence {
	run := func(p kernels.GEMMPath) *Trace { return s.Run(Mode{Path: p, Workers: workers}) }
	m := Mode{Path: kernels.GEMMPathFused, Workers: workers}
	divs := compareTraces(s.Name, m, run(kernels.GEMMPathFused), run(kernels.GEMMPathBlocked), Tol{}, Tol{})
	for i := range divs {
		divs[i].Kind = "fastpath-equiv"
	}
	return divs
}

// fp32Oracle is the oracle of every FP32 mode, and the reference of the
// MP oracles' sanity check.
var fp32Oracle = Mode{Path: kernels.GEMMPathNaive, Workers: 1}

// oracleTraces runs a subject once under each distinct oracle of ms and,
// when ms holds an MP oracle, under fp32Oracle as well.
func oracleTraces(s *Subject, ms []Mode) map[Mode]*Trace {
	oracles := map[Mode]*Trace{}
	for _, m := range ms {
		for _, o := range []Mode{m.Oracle(), fp32Oracle} {
			if oracles[o] == nil && (o == m.Oracle() || m.MP && m.IsOracle()) {
				oracles[o] = s.Run(o)
			}
		}
	}
	return oracles
}

// checkMode differences a subject's run under m against its oracle trace,
// taken from oracles (oracleTraces). The forward output of an MP oracle is
// additionally sanity-checked against the FP32 oracle at tolMPSanity.
func checkMode(s *Subject, m Mode, oracles map[Mode]*Trace) []Divergence {
	want := oracles[m.Oracle()]
	got := want
	if !m.IsOracle() {
		got = s.Run(m)
	}
	fwd, grad := tolerances(m)
	divs := compareTraces(s.Name, m, got, want, fwd, grad)
	if m.MP && m.IsOracle() {
		// Loose FP32-vs-MP sanity: quantized forward must stay near
		// the full-precision forward (gradients excluded; surrogate
		// upstream gradients make their MP deltas uninformative).
		for _, d := range compareTraces(s.Name, m, got, oracles[fp32Oracle], tolMPSanity, Tol{Abs: math.Inf(1)}) {
			if d.Kind == "forward" {
				d.Kind = "mp-sanity"
				divs = append(divs, d)
			}
		}
	}
	return divs
}

// RunModes runs a subject through every mode in ms and differences each
// against its oracle (oracle traces are computed once per distinct oracle
// mode).
func RunModes(s *Subject, ms []Mode) []Divergence {
	oracles := oracleTraces(s, ms)
	var divs []Divergence
	for _, m := range ms {
		divs = append(divs, checkMode(s, m, oracles)...)
	}
	return divs
}
