package report

import (
	"strings"
	"testing"

	"demystbert/internal/device"
	"demystbert/internal/model"
	"demystbert/internal/opgraph"
)

func opgraphPh1() opgraph.Workload {
	return opgraph.Phase1(model.BERTLarge(), 32, opgraph.FP32)
}

func render(t *testing.T, f func(*strings.Builder)) string {
	t.Helper()
	var sb strings.Builder
	f(&sb)
	out := sb.String()
	if len(out) == 0 {
		t.Fatal("empty report")
	}
	return out
}

func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("report missing %q\n--- output ---\n%s", w, out)
		}
	}
}

func TestFig3Report(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { Fig3(sb, model.BERTLarge(), device.MI100()) })
	mustContain(t, out, "Figure 3", "Ph1-B32-FP32", "Ph2-B4-FP16", "Transformer", "LAMB", "Output", "Embedding")
}

func TestFig4Report(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { Fig4(sb, model.BERTLarge(), device.MI100()) })
	mustContain(t, out, "Figure 4", "Linear GEMMs", "Attn. B-GEMM", "Scale+Mask+DR+SM", "FC GEMMs+Grad", "GeLU", "DR+RC+LN")
}

func TestFig6Report(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { Fig6(sb, model.BERTLarge(), device.MI100()) })
	// Table 2b dims at B=32, n=128: linear NN_1024x4096x1024, score
	// NT_128x128x64_b512.
	mustContain(t, out, "Figure 6", "NN_1024x4096x1024", "NT_128x128x64_b512", "NN_4096x4096x1024", "ops/byte")
}

func TestFig7Report(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { Fig7(sb, model.BERTLarge(), device.MI100()) })
	mustContain(t, out, "Figure 7", "LAMBStage1", "LAMBStage2", "GeLU", "DRRCLN", "norm. BW")
}

func TestFig8Report(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { Fig8(sb, model.BERTLarge(), device.MI100()) })
	mustContain(t, out, "Figure 8", "n=128 B=4", "n=128 B=32", "n=512 B=4", "GEMM share")
}

func TestFig9Report(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { Fig9(sb, device.MI100()) })
	mustContain(t, out, "Figure 9", "C1", "C2 (BERT-Large)", "C3 (Megatron-like)", "LAMB=")
}

func TestCheckpointingReport(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { Checkpointing(sb, model.BERTLarge(), device.MI100()) })
	mustContain(t, out, "checkpointing", "kernel count:", "runtime:", "LAMB share:")
}

func TestFig11Report(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { Fig11(sb, model.BERTLarge(), device.MI100()) })
	mustContain(t, out, "Figure 11", "S1", "D1", "D2", "T1", "T2", "Comm (exposed)", "overlapped")
}

func TestFig12Reports(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { Fig12a(sb, model.BERTLarge(), device.MI100()) })
	mustContain(t, out, "Figure 12a", "LayerNorm", "Adam", "kernels:", "traffic:")
	out = render(t, func(sb *strings.Builder) { Fig12b(sb, model.BERTLarge(), device.MI100()) })
	mustContain(t, out, "Figure 12b", "3S serial", "3F fused", "speedup")
}

func TestNMCReport(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { NMC(sb, model.BERTLarge(), device.MI100()) })
	mustContain(t, out, "Near-memory compute", "banks", "speedup-vs-opt", "end-to-end")
}

func TestTable2bReport(t *testing.T) {
	out := render(t, func(sb *strings.Builder) { Table2b(sb, model.BERTLarge()) })
	mustContain(t, out, "Table 2b", "Linear", "Attn. Score", "Attn. O/p", "FC-1", "FC-2",
		"NN_1024x4096x1024", "NT_1024x1024x4096")
}

func TestTakeawaysAllHold(t *testing.T) {
	claims := EvaluateTakeaways(model.BERTLarge(), device.MI100())
	if len(claims) < 17 {
		t.Fatalf("only %d claims evaluated; expected all observations + takeaways", len(claims))
	}
	for _, c := range claims {
		if !c.Holds {
			t.Errorf("claim %s does not hold: %s (%s)", c.ID, c.Text, c.Note)
		}
	}
	out := render(t, func(sb *strings.Builder) { Takeaways(sb, model.BERTLarge(), device.MI100()) })
	mustContain(t, out, "Table 1", "HOLDS", "Obs1", "T13", "NMC")
	if strings.Contains(out, "FAILS") {
		t.Error("takeaways report contains FAILS entries")
	}
}

func TestBarRendering(t *testing.T) {
	if got := bar(0.5, 10); got != "#####....." {
		t.Fatalf("bar(0.5, 10) = %q", got)
	}
	if got := bar(-1, 4); got != "...." {
		t.Fatalf("bar(-1) = %q", got)
	}
	if got := bar(2, 4); got != "####" {
		t.Fatalf("bar(2) = %q", got)
	}
}
