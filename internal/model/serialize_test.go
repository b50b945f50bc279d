package model

import (
	"bytes"
	"strings"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/nn"
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
