package model

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := Tiny()
	cfg.DropProb = 0
	m, _ := New(cfg, 7)

	// Train a step so weights differ from any fresh initialization.
	b := tinyBatch(cfg, 2, 16, 1)
	ctx := nn.NewCtx(1)
	m.Step(ctx, b)
	for _, p := range m.Params() {
		v, g := p.Value.Data(), p.Grad.Data()
		for i := range v {
			v[i] -= 0.01 * g[i]
		}
		p.BumpGen() // manual in-place update: invalidate cached GEMM packs
		p.ZeroGrad()
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Config != cfg {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.Config, cfg)
	}
	orig := m.Params()
	got := loaded.Params()
	if len(orig) != len(got) {
		t.Fatalf("param count %d vs %d", len(got), len(orig))
	}
	for i := range orig {
		od, gd := orig[i].Value.Data(), got[i].Value.Data()
		for j := range od {
			if od[j] != gd[j] {
				t.Fatalf("param %s elem %d: %v vs %v", orig[i].Name, j, gd[j], od[j])
			}
		}
	}

	// Behavioural equality: identical eval loss on the same batch.
	evalA := nn.NewCtx(9)
	evalA.Train = false
	evalB := nn.NewCtx(9)
	evalB.Train = false
	if la, lb := m.Forward(evalA, b), loaded.Forward(evalB, b); la != lb {
		t.Fatalf("loaded model loss %v differs from original %v", lb, la)
	}
}

// TestLoadParamsResumeMatchesContinuousRun is the resume-parity
// regression for the restore-into-existing-model path: a model that has
// trained past a checkpoint (leaving warm GEMM pack caches built from the
// newer weights) and then restores the checkpoint with LoadParams must
// step bitwise-identically to a run that never left the checkpoint. This
// fails if LoadParams forgets to bump the pack-cache generation — the
// packed GEMM path would silently keep multiplying by pre-restore panels.
func TestLoadParamsResumeMatchesContinuousRun(t *testing.T) {
	cfg := Tiny()
	cfg.DropProb = 0
	const seed = 7
	gen := data.NewGenerator(cfg.Vocab, 0.15, 1)
	batch1, batch2 := gen.Next(2, 16), gen.Next(2, 16)

	// Pack caches only matter where pre-packed panels are consumed; the
	// forced fused path consumes them at every size.
	old := kernels.SetGEMMPath(kernels.GEMMPathFused)
	defer kernels.SetGEMMPath(old)

	step := func(m *BERT, opt *optim.LAMB, b *data.Batch) float64 {
		ctx := nn.NewCtx(9)
		loss := m.Step(ctx, b)
		if opt != nil {
			opt.Step(ctx, m.Params())
			m.ZeroGrads()
		}
		return loss
	}

	// Continuous run: step, checkpoint, step again (grads kept).
	cont, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	optC := optim.NewLAMB(0.01)
	step(cont, optC, batch1)
	var ckpt bytes.Buffer
	if err := cont.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	lossCont := step(cont, nil, batch2)

	// Resumed run: same first step, then train PAST the checkpoint so the
	// weights move and the pack caches rebuild from the newer values, then
	// restore and replay.
	res, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	optR := optim.NewLAMB(0.01)
	step(res, optR, batch1)
	step(res, optR, batch2) // divergence: stale weights + warm stale packs
	if err := res.LoadParams(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	lossRes := step(res, nil, batch2)

	if math.Float64bits(lossCont) != math.Float64bits(lossRes) {
		t.Fatalf("resumed loss %v != continuous loss %v", lossRes, lossCont)
	}
	cp, rp := cont.Params(), res.Params()
	for i := range cp {
		cg, rg := cp[i].Grad.Data(), rp[i].Grad.Data()
		for j := range cg {
			if math.Float32bits(cg[j]) != math.Float32bits(rg[j]) {
				t.Fatalf("grad %s[%d]: resumed %v != continuous %v", cp[i].Name, j, rg[j], cg[j])
			}
		}
	}
}

func TestLoadParamsRejectsConfigMismatch(t *testing.T) {
	var buf bytes.Buffer
	m, _ := New(Tiny(), 1)
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := Tiny()
	other.NumLayers++
	m2, _ := New(other, 1)
	if err := m2.LoadParams(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("LoadParams must reject a checkpoint with a different config")
	}
}

func TestCheckpointPreservesWeightTying(t *testing.T) {
	var buf bytes.Buffer
	m, _ := New(Tiny(), 1)
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.MLMDecoder.W != loaded.Embed.Tok {
		t.Fatal("loaded model lost MLM decoder weight tying")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("this is not a checkpoint, honest")); err == nil {
		t.Fatal("garbage input must error")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input must error")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	m, _ := New(Tiny(), 1)
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Load(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Fatal("truncated checkpoint must error")
	}
}

func TestLoadRejectsCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	m, _ := New(Tiny(), 1)
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xFF // break the magic
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt magic must error")
	}
}

func TestSaveLoadFineTuneHandoff(t *testing.T) {
	// The pre-train -> save -> load -> fine-tune workflow of Fig. 1.
	cfg := Tiny()
	cfg.DropProb = 0
	pre, _ := New(cfg, 3)
	var buf bytes.Buffer
	if err := pre.Save(&buf); err != nil {
		t.Fatal(err)
	}
	base, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFineTuner(base, 4)
	ctx := nn.NewCtx(5)
	qa := data.NewGenerator(cfg.Vocab, 0.15, 6).NextQA(2, 16)
	if loss := f.Step(ctx, qa); loss <= 0 {
		t.Fatalf("fine-tune step on loaded model produced loss %v", loss)
	}
}
