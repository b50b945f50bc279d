package model

import (
	"bytes"
	"math"
	"testing"

	"demystbert/internal/nn"
)

func TestGPTMediumConfig(t *testing.T) {
	cfg := GPTMedium()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cfg.Causal {
		t.Fatal("GPT config must be causal")
	}
	// GPT-2 Medium is ~355M parameters.
	if p := cfg.ParamCount(); p < 340e6 || p > 380e6 {
		t.Fatalf("GPT-Medium parameter count %d outside ~355M", p)
	}
}

func TestCausalModelTrains(t *testing.T) {
	cfg := Tiny()
	cfg.Causal = true
	cfg.DropProb = 0
	m, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := nn.NewCtx(1)
	b := tinyBatch(cfg, 2, 16, 1)
	first := m.Step(ctx, b)
	for i := 0; i < 8; i++ {
		for _, p := range m.Params() {
			v, g := p.Value.Data(), p.Grad.Data()
			for j := range v {
				v[j] -= 0.05 * g[j]
			}
			p.ZeroGrad()
		}
		m.Step(ctx, b)
	}
	m.ZeroGrads()
	last := m.Forward(ctx, b)
	if last >= first {
		t.Fatalf("causal model loss did not drop: %v -> %v", first, last)
	}
}

func TestGradientAccumulation(t *testing.T) {
	// Accumulating gradients over K identical micro-batches then scaling
	// by 1/K must equal one micro-batch's gradients exactly.
	cfg := Tiny()
	cfg.DropProb = 0
	b := tinyBatch(cfg, 2, 16, 1)

	single, _ := New(cfg, 11)
	ctxS := nn.NewCtx(1)
	single.Step(ctxS, b)

	accum, _ := New(cfg, 11)
	ctxA := nn.NewCtx(1)
	const k = 3
	for i := 0; i < k; i++ {
		accum.Step(ctxA, b)
	}
	for _, p := range accum.Params() {
		g := p.Grad.Data()
		for i := range g {
			g[i] *= 1.0 / k
		}
	}

	sp, ap := single.Params(), accum.Params()
	for i := range sp {
		sg, ag := sp[i].Grad.Data(), ap[i].Grad.Data()
		for j := range sg {
			if math.Abs(float64(sg[j]-ag[j])) > 1e-5*math.Max(1, math.Abs(float64(sg[j]))) {
				t.Fatalf("param %s grad[%d]: single %v vs accumulated/K %v", sp[i].Name, j, sg[j], ag[j])
			}
		}
	}
}

func TestGPTCheckpointRoundTrip(t *testing.T) {
	cfg := Tiny()
	cfg.Causal = true
	m, _ := New(cfg, 13)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Config.Causal {
		t.Fatal("checkpoint lost the causal flag")
	}
	if !loaded.Layers[0].Attn.Causal {
		t.Fatal("loaded layers are not causal")
	}
}
