package model

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
)

// evalAnswer is what one evaluation pass returns: the encoder rows, the
// logits at the queried positions and the predictions, copied out of the
// workspace.
type evalAnswer struct {
	seq, logits []float32
	preds       [][]int
}

func answerOf(m *BERT, ctx *nn.Ctx, b *data.Ragged, ps [][]int) evalAnswer {
	seq, logits := encodeAndLogits(m, ctx, b, ps)
	a := evalAnswer{seq: slices.Clone(seq.Data()), logits: slices.Clone(logits.Data())}
	a.preds = m.PredictMaskedAt(ctx, b, ps)
	return a
}

// TestConcurrentEvalBitwiseSerial: several goroutines, each with its own
// context and one-wide kernel pool, run the evaluation forward and
// PredictMaskedAt on one model at once, over different ragged batches, and
// every answer — encoder rows, logits, predictions — is bit for bit the
// one the same batch gets alone on a fresh context. Under -race it is
// also a check that the passes share nothing but the weights and the pack
// caches (nn's TestEvalForwardWritesNoModuleField pins the modules field
// by field). Three layers make the passes reuse their workspaces, and
// every goroutine reads the warmed packs.
func TestConcurrentEvalBitwiseSerial(t *testing.T) {
	cfg := Config{Vocab: 256, MaxPos: 32, NumLayers: 3, DModel: 64, Heads: 4, DFF: 128, DropProb: 0.1}
	m, err := New(cfg, 29)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmupInference(nil)
	const goroutines, rounds = 4, 3
	type job struct {
		b  *data.Ragged
		ps [][]int
	}
	jobs := make([][]job, goroutines)
	want := make([][]evalAnswer, goroutines)
	for g := range jobs {
		for r := range rounds {
			lens := []int{1 + (5*g+3*r)%cfg.MaxPos, cfg.MaxPos - g - r, 4 + g*r}
			b, ps := raggedBatch(cfg, lens[:1+(g+r)%3], uint64(100+10*g+r))
			jobs[g] = append(jobs[g], job{b, ps})
			want[g] = append(want[g], answerOf(m, &nn.Ctx{Pool: widthPools[1]}, b, ps))
		}
	}

	got := make([][]evalAnswer, goroutines)
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &nn.Ctx{Pool: kernels.NewPool(1)}
			for _, j := range jobs[g] {
				got[g] = append(got[g], answerOf(m, ctx, j.b, j.ps))
			}
		}()
	}
	wg.Wait()

	for g := range jobs {
		for r := range rounds {
			w, a := want[g][r], got[g][r]
			where := fmt.Sprintf("goroutine %d batch %d", g, r)
			if i := firstBitDiff(a.seq, w.seq); i >= 0 || len(a.seq) != len(w.seq) {
				t.Errorf("%s: encoder rows differ from the serial pass at element %d", where, i)
			}
			if i := firstBitDiff(a.logits, w.logits); i >= 0 || len(a.logits) != len(w.logits) {
				t.Errorf("%s: logits differ from the serial pass at element %d", where, i)
			}
			if !reflect.DeepEqual(a.preds, w.preds) {
				t.Errorf("%s: predictions %v, serial %v", where, a.preds, w.preds)
			}
		}
	}
}

// TestEvalWorkspaceHoldsTwoLayers: the evaluation forward draws layer i
// into layer i−2's slots, so its workspace holds the embedding, two layers
// and the head — the same bytes at depth 2, 3 and 6 — where drawing every
// layer anew grew it by a layer's activations per layer.
func TestEvalWorkspaceHoldsTwoLayers(t *testing.T) {
	bytesAt := func(layers int) int {
		cfg := Tiny()
		cfg.NumLayers = layers
		m, err := New(cfg, 31)
		if err != nil {
			t.Fatal(err)
		}
		b, ps := raggedBatch(cfg, []int{cfg.MaxPos, 7, 19}, 5)
		ctx := inferCtx()
		m.PredictMaskedAt(ctx, b, ps)
		return ctx.WorkspaceBytes()
	}
	two := bytesAt(2)
	if one := bytesAt(1); one >= two {
		t.Fatalf("one layer holds %d bytes, two %d: the probe does not see a layer", one, two)
	}
	for _, layers := range []int{3, 6} {
		if got := bytesAt(layers); got != two {
			t.Errorf("%d layers hold %d workspace bytes, two layers %d", layers, got, two)
		}
	}
}
