package demystbert

// Cross-substrate consistency tests: the real execution engine and the
// analytical operator graph must agree on the algorithmic quantities —
// they implement the same network, so per-phase GEMM FLOP counts must
// match exactly, not approximately. A drift here means one substrate's
// operator enumeration is wrong.

import (
	"strings"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/opgraph"
	"demystbert/internal/profile"
)

// gemmFLOPs holds GEMM FLOPs per phase for the transformer layers and for
// the output heads.
type gemmFLOPs struct {
	transformer, output map[profile.Phase]int64
}

// realGEMMFLOPs runs one real iteration and sums the GEMM FLOPs of its
// transformer-layer and output-head kernels per phase. The graph folds the
// NSP head (B rows) into one element-wise kernel, so the pooler's and the
// classifier's GEMMs are left out of the output sum. It also returns how
// many rows the batch scores.
func realGEMMFLOPs(t *testing.T, cfg model.Config, b, n int) (gemmFLOPs, int) {
	t.Helper()
	m, err := model.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := nn.NewCtx(2)
	batch := data.NewGenerator(cfg.Vocab, 0.15, 3).Next(b, n)
	m.Step(ctx, batch)

	out := gemmFLOPs{make(map[profile.Phase]int64), make(map[profile.Phase]int64)}
	for _, e := range ctx.Prof.Events() {
		// The real profiler folds bias kernels into the GEMM categories
		// but records them as separate events, excluded here.
		if e.FLOPs == 0 || e.Kernel == "linear_fwd_bias" || e.Kernel == "linear_bwd_bgrad" {
			continue
		}
		switch {
		case e.Category == profile.CatLinear || e.Category == profile.CatAttnBGEMM || e.Category == profile.CatFCGEMM:
			out.transformer[e.Phase] += e.FLOPs
		case e.Category == profile.CatOutput && strings.HasSuffix(e.Kernel, "_gemm"):
			out.output[e.Phase] += e.FLOPs
		}
	}
	nsp := int64(2*b*cfg.DModel*cfg.DModel + 2*b*2*cfg.DModel) // pooler + classifier
	out.output[profile.Forward] -= nsp
	out.output[profile.Backward] -= 2 * nsp // d-activation and d-weight
	return out, batch.MaskedCount()
}

// graphGEMMFLOPs sums GEMM FLOPs per phase from the analytical graph, with
// the MLM head over mlmRows positions (0 = all of them).
func graphGEMMFLOPs(cfg model.Config, b, n, mlmRows int) gemmFLOPs {
	w := opgraph.Workload{Cfg: cfg, B: b, SeqLen: n, Precision: opgraph.FP32, MLMRows: mlmRows}
	out := gemmFLOPs{make(map[profile.Phase]int64), make(map[profile.Phase]int64)}
	for _, op := range opgraph.Build(w).Ops {
		switch {
		case op.GEMM == nil:
		case op.Class == opgraph.ClassTransformer:
			out.transformer[op.Phase] += op.TotalFLOPs()
		case op.Class == opgraph.ClassOutput:
			out.output[op.Phase] += op.TotalFLOPs()
		}
	}
	return out
}

func TestRealAndAnalyticalGEMMFLOPsMatchExactly(t *testing.T) {
	cfg := model.Tiny()
	const b, n = 4, 32
	real, scored := realGEMMFLOPs(t, cfg, b, n)
	if scored == 0 || scored == b*n {
		t.Fatalf("batch scores %d of %d rows; the output check needs a gathered head", scored, b*n)
	}
	graph := graphGEMMFLOPs(cfg, b, n, scored)

	for _, ph := range []profile.Phase{profile.Forward, profile.Backward} {
		if real.transformer[ph] != graph.transformer[ph] {
			t.Errorf("%s transformer GEMM FLOPs: real engine %d vs analytical graph %d",
				ph, real.transformer[ph], graph.transformer[ph])
		}
		// The real MLM head runs over the scored rows; the graph matches it
		// to the operation once told how many there are, and the all-token
		// head of Table 2b (MLMRows = 0) is that times B·n / rows.
		if real.output[ph] != graph.output[ph] {
			t.Errorf("%s output GEMM FLOPs: real engine %d vs analytical graph at MLMRows=%d %d",
				ph, real.output[ph], scored, graph.output[ph])
		}
		if dense := graphGEMMFLOPs(cfg, b, n, 0); dense.output[ph]*int64(scored) != graph.output[ph]*int64(b*n) {
			t.Errorf("%s output GEMM FLOPs: all-token head %d is not B·n/rows = %d/%d of the gathered head's %d",
				ph, dense.output[ph], b*n, scored, graph.output[ph])
		}
	}
}

func TestRealAndAnalyticalScaleTogether(t *testing.T) {
	// Doubling B must exactly double both substrates' transformer GEMM
	// FLOPs — the linear-in-tokens law (Obs. 3) holding bit-for-bit.
	cfg := model.Tiny()
	g1 := graphGEMMFLOPs(cfg, 2, 32, 0).transformer
	g2 := graphGEMMFLOPs(cfg, 4, 32, 0).transformer
	r1, _ := realGEMMFLOPs(t, cfg, 2, 32)
	r2, _ := realGEMMFLOPs(t, cfg, 4, 32)
	for _, ph := range []profile.Phase{profile.Forward, profile.Backward} {
		if g2[ph] != 2*g1[ph] {
			t.Errorf("graph %s FLOPs not linear in B: %d vs %d", ph, g2[ph], g1[ph])
		}
		if r2.transformer[ph] != 2*r1.transformer[ph] {
			t.Errorf("real %s FLOPs not linear in B: %d vs %d", ph, r2.transformer[ph], r1.transformer[ph])
		}
	}
}

func TestRealEngineLAMBTrafficMatchesTakeaway7(t *testing.T) {
	// The real optimizer's recorded stage-1 traffic must equal the
	// analytical 7 × params × 4 bytes for the same model.
	cfg := model.Tiny()
	run, err := TrainReal(cfg, 2, 16, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := run.Profile.ByCategory[profile.CatLAMBStage1].Bytes
	// Subtract the global-norm read (1 × params × 4).
	params := int64(cfg.ParamCount())
	if want := 7*params*4 + params*4; got != want {
		t.Errorf("real LAMB stage-1+norm traffic %d, want %d", got, want)
	}
}
