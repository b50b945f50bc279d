package opgraph

import (
	"strings"
	"testing"
	"testing/quick"

	"demystbert/internal/model"
	"demystbert/internal/profile"
)

func findGEMM(t *testing.T, g *Graph, name string) Op {
	t.Helper()
	for _, op := range g.Ops {
		if op.Name == name {
			if op.GEMM == nil {
				t.Fatalf("op %s is not a GEMM", name)
			}
			return op
		}
	}
	t.Fatalf("GEMM %s not found", name)
	return Op{}
}

// TestTable2b verifies every GEMM dimension of Table 2b for BERT-Large at
// Phase-1 (n=128, B=32): Linear, Attn. Score, Attn. O/p, FC-1, FC-2, each
// with its FWD, BWD-grad-activation, and BWD-grad-weight manifestations.
func TestTable2b(t *testing.T) {
	cfg := model.BERTLarge()
	const B, n = 32, 128
	g := Build(Phase1(cfg, B, FP32))
	d, ff, h := cfg.DModel, cfg.DFF, cfg.Heads
	dh := d / h
	nB := n * B

	check := func(name string, m, nn, k, batch int) {
		t.Helper()
		op := findGEMM(t, g, name)
		s := op.GEMM
		if s.M != m || s.N != nn || s.K != k || s.Batch != batch {
			t.Errorf("%s: got %dx%dx%d b%d, want %dx%dx%d b%d",
				name, s.M, s.N, s.K, s.Batch, m, nn, k, batch)
		}
	}

	// Linear: FWD d×nB×d; BWD act d×nB×d; BWD wgt d×d×nB.
	check("linear_qkv_fwd", d, nB, d, 1)
	check("linear_qkv_bwd_dgrad", d, nB, d, 1)
	check("linear_qkv_bwd_wgrad", d, d, nB, 1)

	// Attn Score: FWD n×n×(d/h) with B·h batch; BWD rows per Table 2b.
	check("attn_score_bgemm", n, n, dh, B*h)
	check("attn_score_bgemm_bwd_dgrad", n, dh, n, B*h)
	check("attn_score_bgemm_bwd_wgrad", dh, n, n, B*h)

	// Attn O/p: FWD (d/h)×n×n with B·h batch.
	check("attn_output_bgemm", dh, n, n, B*h)
	check("attn_output_bgemm_bwd_dgrad", n, n, dh, B*h)
	check("attn_output_bgemm_bwd_wgrad", n, dh, n, B*h)

	// FC-1: FWD dff×nB×d; BWD act d×nB×dff; BWD wgt d×dff×nB.
	check("fc1_fwd", ff, nB, d, 1)
	check("fc1_bwd_dgrad", d, nB, ff, 1)
	check("fc1_bwd_wgrad", d, ff, nB, 1)

	// FC-2: FWD d×nB×dff; BWD act dff×nB×d; BWD wgt dff×d×nB.
	check("fc2_fwd", d, nB, ff, 1)
	check("fc2_bwd_dgrad", ff, nB, d, 1)
	check("fc2_bwd_wgrad", ff, d, nB, 1)
}

func TestGEMMShapeHelpers(t *testing.T) {
	s := GEMMShape{M: 2, N: 3, K: 4, Batch: 5}
	if s.FLOPs() != 5*2*2*3*4 {
		t.Fatalf("FLOPs = %d", s.FLOPs())
	}
	if s.Bytes(4) != 5*4*(8+12+6) {
		t.Fatalf("Bytes = %d", s.Bytes(4))
	}
	if got := (GEMMShape{TransA: true, M: 1, N: 2, K: 3, Batch: 1}).Label(); got != "TN_1x2x3" {
		t.Fatalf("Label = %q", got)
	}
	if got := (GEMMShape{M: 1, N: 2, K: 3, Batch: 7}).Label(); got != "NN_1x2x3_b7" {
		t.Fatalf("batched Label = %q", got)
	}
}

func TestPrecision(t *testing.T) {
	if FP32.ElemSize() != 4 || Mixed.ElemSize() != 2 {
		t.Fatal("element sizes wrong")
	}
	if FP32.String() != "FP32" || Mixed.String() != "FP16" {
		t.Fatal("precision names wrong")
	}
}

func TestWorkloadNames(t *testing.T) {
	cfg := model.BERTLarge()
	if w := Phase1(cfg, 32, FP32); w.Name != "Ph1-B32-FP32" || w.SeqLen != 128 {
		t.Fatalf("Phase1 = %+v", w)
	}
	if w := Phase2(cfg, 4, Mixed); w.Name != "Ph2-B4-FP16" || w.SeqLen != 512 {
		t.Fatalf("Phase2 = %+v", w)
	}
	if Phase1(cfg, 32, FP32).Tokens() != 4096 {
		t.Fatal("Tokens wrong")
	}
}

func TestMixedPrecisionBytes(t *testing.T) {
	cfg := model.BERTLarge()
	fp32 := Build(Phase1(cfg, 32, FP32))
	mp := Build(Phase1(cfg, 32, Mixed))
	fc32 := findGEMM(t, fp32, "fc1_fwd")
	fc16 := findGEMM(t, mp, "fc1_fwd")
	if fc16.Bytes*2 != fc32.Bytes {
		t.Fatalf("MP GEMM bytes %d, FP32 %d: want exactly half", fc16.Bytes, fc32.Bytes)
	}
	if fc16.FLOPs != fc32.FLOPs {
		t.Fatal("precision must not change FLOPs")
	}
	// LAMB ops stay FP32 in both graphs.
	lambBytes := func(g *Graph) int64 {
		var n int64
		for _, op := range g.Ops {
			if op.Class == ClassLAMB {
				n += op.TotalBytes()
			}
		}
		return n
	}
	if lambBytes(fp32) != lambBytes(mp) {
		t.Fatal("LAMB traffic must be identical across precisions (FP32 master state)")
	}
}

func TestLAMBTrafficIsFourTimesModelReads(t *testing.T) {
	// Takeaway 7: LAMB stage 1 reads 4× the model size.
	cfg := model.BERTLarge()
	g := Build(Phase1(cfg, 32, FP32))
	var stage1Bytes, params int64
	for _, op := range g.Ops {
		if op.Name == "lamb_stage1" {
			stage1Bytes += op.TotalBytes()
		}
	}
	params = int64(cfg.ParamCount())
	// stage 1 = 4 reads + 3 writes per element.
	if want := 7 * params * 4; stage1Bytes != want {
		t.Fatalf("stage1 bytes %d, want %d (7 arrays × params × 4B)", stage1Bytes, want)
	}
}

func TestParamTensorsSumMatchesParamCount(t *testing.T) {
	for _, cfg := range []model.Config{model.BERTLarge(), model.BERTBase(), model.Tiny()} {
		var sum int
		for _, pt := range ParamTensors(cfg) {
			sum += pt.Size
		}
		if sum != cfg.ParamCount() {
			t.Errorf("ParamTensors sum %d != ParamCount %d", sum, cfg.ParamCount())
		}
	}
}

func TestParamGroupsSumMatchesParamCount(t *testing.T) {
	for _, cfg := range []model.Config{model.BERTLarge(), model.Tiny()} {
		var sum int
		for _, pg := range ParamGroups(cfg) {
			sum += pg.Size
		}
		if sum != cfg.ParamCount() {
			t.Errorf("ParamGroups sum %d != ParamCount %d", sum, cfg.ParamCount())
		}
	}
	// One group per layer plus embedding and heads.
	cfg := model.BERTLarge()
	if got := len(ParamGroups(cfg)); got != cfg.NumLayers+2 {
		t.Fatalf("groups = %d, want %d", got, cfg.NumLayers+2)
	}
}

func TestCheckpointingAddsRecomputeKernels(t *testing.T) {
	cfg := model.BERTLarge()
	base := Build(Phase1(cfg, 32, FP32))
	w := Phase1(cfg, 32, FP32)
	w.CheckpointEvery = 6
	ck := Build(w)
	inc := float64(ck.KernelCount())/float64(base.KernelCount()) - 1
	// Section 4: ~33% more kernels.
	if inc < 0.25 || inc > 0.40 {
		t.Fatalf("checkpoint kernel increase %.2f outside [0.25, 0.40]", inc)
	}
	found := false
	for _, op := range ck.Ops {
		if strings.HasSuffix(op.Name, "_recompute") {
			found = true
			if op.Phase != profile.Forward {
				t.Fatal("recompute ops keep forward cost structure")
			}
		}
	}
	if !found {
		t.Fatal("no recompute ops emitted")
	}
}

func TestOptNoneOmitsUpdate(t *testing.T) {
	w := Phase1(model.BERTLarge(), 32, FP32)
	w.Optimizer = OptNone
	g := Build(w)
	for _, op := range g.Ops {
		if op.Class == ClassLAMB {
			t.Fatal("OptNone graph contains LAMB ops")
		}
	}
}

func TestGEMMsReturnsAllGEMMOps(t *testing.T) {
	g := Build(Phase1(model.BERTLarge(), 32, FP32))
	gemms := g.GEMMs()
	// 5 Table-2b families × 3 manifestations + qkv/proj separation +
	// 4 output-layer GEMMs: at minimum 20 distinct GEMM entries.
	if len(gemms) < 20 {
		t.Fatalf("only %d GEMM ops found", len(gemms))
	}
	for _, op := range gemms {
		if op.GEMM == nil || op.FLOPs == 0 {
			t.Fatalf("malformed GEMM op %q", op.Name)
		}
	}
}

// Property: total FLOPs of forward+backward scale linearly with batch
// size (Obs. 3) while LAMB FLOPs stay constant.
func TestBatchScalingProperty(t *testing.T) {
	cfg := model.Tiny()
	f := func(seed uint64) bool {
		b := 1 + int(seed%8)
		g1 := Build(Phase1(cfg, b, FP32))
		g2 := Build(Phase1(cfg, 2*b, FP32))
		var fb1, fb2, l1, l2 int64
		for _, op := range g1.Ops {
			if op.Class == ClassLAMB {
				l1 += op.TotalFLOPs()
			} else {
				fb1 += op.TotalFLOPs()
			}
		}
		for _, op := range g2.Ops {
			if op.Class == ClassLAMB {
				l2 += op.TotalFLOPs()
			} else {
				fb2 += op.TotalFLOPs()
			}
		}
		return fb2 == 2*fb1 && l1 == l2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Attention-score work scales quadratically with sequence length while
// linear/FC GEMMs scale linearly (Takeaway 10 / Section 3.3.1).
func TestSequenceLengthScaling(t *testing.T) {
	cfg := model.BERTLarge()
	flopsOf := func(g *Graph, name string) int64 {
		return findGEMM(t, g, name).TotalFLOPs()
	}
	g128 := Build(Workload{Cfg: cfg, B: 8, SeqLen: 128, Precision: FP32})
	g512 := Build(Workload{Cfg: cfg, B: 8, SeqLen: 512, Precision: FP32})

	if r := flopsOf(g512, "attn_score_bgemm") / flopsOf(g128, "attn_score_bgemm"); r != 16 {
		t.Fatalf("score BGEMM scaling with 4x n = %dx, want 16x (quadratic)", r)
	}
	if r := flopsOf(g512, "fc1_fwd") / flopsOf(g128, "fc1_fwd"); r != 4 {
		t.Fatalf("FC GEMM scaling with 4x n = %dx, want 4x (linear)", r)
	}
}

// Layer-width scaling: GEMM and LAMB work scale quadratically with
// d_model, other ops linearly (Takeaway 11 / Section 3.3.2).
func TestLayerWidthScaling(t *testing.T) {
	mk := func(d int) *Graph {
		cfg := model.BERTLarge()
		cfg.DModel = d
		cfg.DFF = 4 * d
		cfg.Heads = d / 64
		return Build(Phase1(cfg, 8, FP32))
	}
	g1, g2 := mk(1024), mk(2048)

	var fc1, fc2, lamb1, lamb2, ln1, ln2 int64
	sum := func(g *Graph, fc, lamb, ln *int64) {
		for _, op := range g.Ops {
			switch {
			case op.Name == "fc1_fwd":
				*fc += op.TotalFLOPs()
			case op.Class == ClassLAMB:
				*lamb += op.TotalFLOPs()
			case op.Name == "ff_layernorm":
				*ln += op.TotalFLOPs()
			}
		}
	}
	sum(g1, &fc1, &lamb1, &ln1)
	sum(g2, &fc2, &lamb2, &ln2)

	if r := float64(fc2) / float64(fc1); r != 4 {
		t.Fatalf("FC GEMM scaling with 2x width = %vx, want 4x", r)
	}
	// LAMB scales with parameter count: quadratic in width for the
	// transformer but sub-quadratic overall due to embedding tables.
	if r := float64(lamb2) / float64(lamb1); r < 3 || r > 4.2 {
		t.Fatalf("LAMB scaling with 2x width = %vx, want ~3.5-4x", r)
	}
	if r := float64(ln2) / float64(ln1); r != 2 {
		t.Fatalf("LayerNorm scaling with 2x width = %vx, want 2x (linear)", r)
	}
}

func TestLayerCountScaling(t *testing.T) {
	// Obs. 4: Transformer and LAMB work scale linearly with N.
	mk := func(n int) *Graph {
		cfg := model.BERTLarge()
		cfg.NumLayers = n
		return Build(Phase1(cfg, 8, FP32))
	}
	g24, g48 := mk(24), mk(48)
	var t24, t48 int64
	for _, op := range g24.Ops {
		if op.Class == ClassTransformer {
			t24 += op.TotalFLOPs()
		}
	}
	for _, op := range g48.Ops {
		if op.Class == ClassTransformer {
			t48 += op.TotalFLOPs()
		}
	}
	if t48 != 2*t24 {
		t.Fatalf("transformer FLOPs scaling with 2x layers: %d vs %d", t48, t24)
	}
}

func TestKernelCountsAndTotals(t *testing.T) {
	g := Build(Phase1(model.BERTLarge(), 32, FP32))
	if g.KernelCount() < 1000 {
		t.Fatalf("kernel count %d implausibly low for 24-layer training", g.KernelCount())
	}
	if g.TotalFLOPs() <= 0 || g.TotalBytes() <= 0 {
		t.Fatal("totals must be positive")
	}
	// FWD+BWD FLOPs should be roughly 3x the forward pass alone
	// (backprop ≈ 2× forward, Section 7).
	var fwd, bwd int64
	for _, op := range g.Ops {
		switch op.Phase {
		case profile.Forward:
			fwd += op.TotalFLOPs()
		case profile.Backward:
			bwd += op.TotalFLOPs()
		}
	}
	ratio := float64(bwd) / float64(fwd)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("BWD/FWD FLOP ratio %.2f outside ~2x", ratio)
	}
}

func TestLayerClassString(t *testing.T) {
	for c, want := range map[LayerClass]string{
		ClassTransformer: "Transformer", ClassEmbedding: "Embedding",
		ClassOutput: "Output", ClassLAMB: "LAMB", ClassComm: "Comm",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
	if LayerClass(99).String() != "???" {
		t.Error("unknown class must render ???")
	}
}

func TestOpIntensity(t *testing.T) {
	op := Op{FLOPs: 100, Bytes: 50}
	if op.Intensity() != 2 {
		t.Fatalf("Intensity = %v", op.Intensity())
	}
	if (Op{FLOPs: 5}).Intensity() != 0 {
		t.Fatal("zero-byte intensity must be 0")
	}
}

// Fig. 6's core finding: FC GEMMs are compute-intense, linear GEMMs less
// so, attention batched GEMMs have very low intensity.
func TestGEMMIntensityOrdering(t *testing.T) {
	g := Build(Phase1(model.BERTLarge(), 32, FP32))
	fc := findGEMM(t, g, "fc1_fwd")
	lin := findGEMM(t, g, "linear_qkv_fwd")
	score := findGEMM(t, g, "attn_score_bgemm")
	if !(fc.Intensity() > lin.Intensity() && lin.Intensity() > score.Intensity()) {
		t.Fatalf("intensity ordering violated: FC=%.1f Linear=%.1f Score=%.1f",
			fc.Intensity(), lin.Intensity(), score.Intensity())
	}
	if score.Intensity() > 30 {
		t.Fatalf("attention BGEMM intensity %.1f should be low (memory-bound)", score.Intensity())
	}
}

// Property: Build is deterministic — identical workloads produce
// identical graphs (op-for-op).
func TestBuildDeterministicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := model.Tiny()
		b := 1 + int(seed%8)
		g1 := Build(Phase1(cfg, b, FP32))
		g2 := Build(Phase1(cfg, b, FP32))
		if len(g1.Ops) != len(g2.Ops) {
			return false
		}
		for i := range g1.Ops {
			a, bb := g1.Ops[i], g2.Ops[i]
			if a.Name != bb.Name || a.FLOPs != bb.FLOPs || a.Bytes != bb.Bytes || a.Repeat != bb.Repeat {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: m-way slicing reduces per-device FLOPs monotonically while
// replicated (DR+RC+LN) FLOPs stay constant.
func TestSlicingMonotoneProperty(t *testing.T) {
	cfg := model.BERTLarge()
	var prevGEMM int64 = 1 << 62
	for _, m := range []int{1, 2, 4, 8} {
		w := Phase1(cfg, 16, FP32)
		w.SliceWays = m
		g := Build(w)
		var gemm, drrcln int64
		for _, op := range g.Ops {
			if op.GEMM != nil && op.Class == ClassTransformer {
				gemm += op.TotalFLOPs()
			}
			if op.Category == profile.CatDRRCLN {
				drrcln += op.TotalFLOPs()
			}
		}
		if gemm >= prevGEMM {
			t.Fatalf("m=%d: per-device GEMM FLOPs did not shrink", m)
		}
		prevGEMM = gemm
		base := Build(Phase1(cfg, 16, FP32))
		var baseDR int64
		for _, op := range base.Ops {
			if op.Category == profile.CatDRRCLN {
				baseDR += op.TotalFLOPs()
			}
		}
		if drrcln != baseDR {
			t.Fatalf("m=%d: replicated DR+RC+LN FLOPs changed", m)
		}
	}
}

func TestFineTuningGraphSmallerThanPretraining(t *testing.T) {
	cfg := model.BERTLarge()
	pre := Build(Phase1(cfg, 32, FP32))
	w := Phase1(cfg, 32, FP32)
	w.Mode = FineTuning
	ft := Build(w)
	if ft.TotalFLOPs() >= pre.TotalFLOPs() {
		t.Fatal("fine-tuning graph must have fewer FLOPs (simpler head)")
	}
	if ft.KernelCount() >= pre.KernelCount() {
		t.Fatal("fine-tuning graph must have fewer kernels")
	}
}

// TestMLMRowsAblation: the gathered head is an ablation of the output
// class and of nothing else. MLMRows = 0 and MLMRows = B·n describe the
// same output GEMMs (Table 2b's all-token head stays the default); fewer
// rows scale every output-class GEMM and the logits' share of the
// footprint by rows / B·n exactly, add the gather and the scatter, and
// leave every other class's ops untouched.
func TestMLMRowsAblation(t *testing.T) {
	cfg := model.BERTLarge()
	dense := Phase1(cfg, 32, FP32)
	tokens := dense.Tokens()
	classFLOPs := func(w Workload, gemmOnly bool) map[LayerClass]int64 {
		out := map[LayerClass]int64{}
		for _, op := range Build(w).Ops {
			if !gemmOnly || op.GEMM != nil {
				out[op.Class] += op.TotalFLOPs()
			}
		}
		return out
	}

	full := dense
	full.MLMRows = tokens
	if d, f := classFLOPs(dense, true), classFLOPs(full, true); d[ClassOutput] != f[ClassOutput] {
		t.Errorf("MLMRows = B·n: output GEMM FLOPs %d, all-token head %d", f[ClassOutput], d[ClassOutput])
	}

	sparse := dense
	sparse.MLMRows = tokens * 15 / 100
	dAll, sAll := classFLOPs(dense, false), classFLOPs(sparse, false)
	for _, c := range []LayerClass{ClassEmbedding, ClassTransformer, ClassLAMB} {
		if dAll[c] != sAll[c] {
			t.Errorf("%s FLOPs moved with MLMRows: %d vs %d", c, sAll[c], dAll[c])
		}
	}
	dG, sG := classFLOPs(dense, true), classFLOPs(sparse, true)
	if got, want := sG[ClassOutput]*int64(tokens), dG[ClassOutput]*int64(sparse.MLMRows); got != want {
		t.Errorf("output GEMM FLOPs %d at %d of %d rows, want exactly rows/tokens of %d", sG[ClassOutput], sparse.MLMRows, tokens, dG[ClassOutput])
	}
	if extra := Build(sparse).KernelCount() - Build(dense).KernelCount(); extra != 2 {
		t.Errorf("gathered head adds %d kernels, want 2 (mlm_gather, mlm_scatter)", extra)
	}
	logits := func(rows int) int64 { return int64(rows) * int64(cfg.Vocab) * int64(FP32.ElemSize()) }
	if got, want := Footprint(dense).Activations-Footprint(sparse).Activations, logits(tokens)-logits(sparse.MLMRows); got != want {
		t.Errorf("footprint falls by %d bytes, want the logits of the rows not computed, %d", got, want)
	}
}
