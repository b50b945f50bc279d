package model

import (
	"fmt"
	"math"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/tensor"
)

func inferCtx() *nn.Ctx { return &nn.Ctx{Train: false} }

// raggedBatch builds a padding-free batch of sequences of the given
// lengths plus the per-sequence positions PredictMaskedAt is queried at.
// Each sequence is CLS + words with [MASK] at position 1 and, from four
// tokens up, at its last position; a lone CLS has nothing to query.
func raggedBatch(cfg Config, lens []int, seed uint64) (*data.Ragged, [][]int) {
	rng := tensor.NewRNG(seed)
	b := &data.Ragged{}
	positions := make([][]int, len(lens))
	for s, ln := range lens {
		toks := make([]int, ln)
		toks[0] = data.ClsID
		for i := 1; i < ln; i++ {
			toks[i] = data.FirstWordID + rng.Intn(cfg.Vocab-data.FirstWordID)
		}
		if ln > 1 {
			toks[1] = data.MaskID
			positions[s] = []int{1}
		}
		if ln > 3 {
			toks[ln-1] = data.MaskID
			positions[s] = append(positions[s], ln-1)
		}
		segs := make([]int, ln)
		for i := ln / 2; i < ln; i++ {
			segs[i] = 1
		}
		b.Append(toks, segs)
	}
	return b, positions
}

// pick returns the batch made of sequences order[0], order[1], … of b.
func pick(b *data.Ragged, positions [][]int, order ...int) (*data.Ragged, [][]int) {
	out := &data.Ragged{}
	var ps [][]int
	for _, s := range order {
		lo, hi := b.Offsets[s], b.Offsets[s+1]
		out.Append(b.Tokens[lo:hi], b.Segments[lo:hi])
		ps = append(ps, positions[s])
	}
	return out, ps
}

// encodeAndLogits runs the evaluation forward and the MLM head at the
// queried positions, returning the encoder output and the logits.
func encodeAndLogits(m *BERT, ctx *nn.Ctx, b *data.Ragged, positions [][]int) (seq, logits *tensor.Tensor) {
	seq = m.EncodeEval(ctx, b)
	var rows []int
	for s, ps := range positions {
		for _, p := range ps {
			rows = append(rows, b.Offsets[s]+p)
		}
	}
	if len(rows) == 0 {
		return seq, tensor.New(0, m.Config.Vocab)
	}
	return seq, m.mlmLogits(ctx, seq, rows)
}

// TestRaggedBatchBitwiseMatchesAlone is the serving-correctness keystone:
// the encoder rows and MLM logits of every sequence in a mixed batch are,
// bit for bit, what the same sequence gets run alone — whatever else is in
// the batch, wherever in it the sequence sits, causal or not, on one worker
// or several. Lengths span 1 (a 1×1 softmax) to MaxPos.
//
// Forced routes hold at any width. Under auto the config is d = 128, where
// even a one-row product stays on the engine (2·1·128·128 = smallGEMMFlops);
// a narrower model can cross the size rule as the row count changes — the
// caveat StepAccum and the sparse MLM head carry too.
// widthPools holds the kernel pool of each width the ragged tests run at.
var widthPools = map[int]*kernels.Pool{1: kernels.NewPool(1), 3: kernels.NewPool(3)}

func TestRaggedBatchBitwiseMatchesAlone(t *testing.T) {
	wide := Config{Vocab: 256, MaxPos: 32, NumLayers: 2, DModel: 128, Heads: 2, DFF: 256, DropProb: 0.1}
	for _, tc := range []struct {
		path kernels.GEMMPath
		cfg  Config
	}{
		{kernels.GEMMPathNaive, Tiny()},
		{kernels.GEMMPathBlocked, Tiny()},
		{kernels.GEMMPathFused, Tiny()},
		{kernels.GEMMPathAuto, wide},
	} {
		for _, causal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/causal=%v", tc.path, causal), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Causal = causal
				m, err := New(cfg, 17)
				if err != nil {
					t.Fatal(err)
				}
				lens := []int{cfg.MaxPos, 1, 9, 2, cfg.MaxPos/2 + 1, 5}
				all, positions := raggedBatch(cfg, lens, 99)

				// Each sequence alone, on one worker.
				aloneSeq := make([]*tensor.Tensor, len(lens))
				aloneLogits := make([]*tensor.Tensor, len(lens))
				for s := range lens {
					b, ps := pick(all, positions, s)
					aloneSeq[s], aloneLogits[s] = encodeAndLogits(m, &nn.Ctx{Route: tc.path, Pool: widthPools[1]}, b, ps)
				}

				for _, workers := range []int{1, 3} {
					for _, order := range [][]int{{0, 1, 2, 3, 4, 5}, {3, 5, 0, 4, 2, 1}} {
						b, ps := pick(all, positions, order...)
						seq, logits := encodeAndLogits(m, &nn.Ctx{Route: tc.path, Pool: widthPools[workers]}, b, ps)
						logitRow := 0
						for i, s := range order {
							for r := 0; r < lens[s]; r++ {
								got, want := seq.Row(b.Offsets[i]+r), aloneSeq[s].Row(r)
								for j := range want {
									if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
										t.Fatalf("workers=%d order=%v: sequence %d row %d dim %d: %v in the batch, %v alone", workers, order, s, r, j, got[j], want[j])
									}
								}
							}
							for q := range ps[i] {
								got, want := logits.Row(logitRow), aloneLogits[s].Row(q)
								logitRow++
								for j := range want {
									if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
										t.Fatalf("workers=%d order=%v: sequence %d query %d logit %d: %v in the batch, %v alone", workers, order, s, q, j, got[j], want[j])
									}
								}
							}
						}
					}
				}
			})
		}
	}
}

// paddedEncode is the oracle for the ragged forward: the evaluation pass
// this package ran before it — every sequence padded with [PAD] (id 0) to n
// tokens, a [B, n] additive key-padding mask, and the training layers in
// eval mode. Sequence s is in rows s·n … of the result.
func paddedEncode(m *BERT, ctx *nn.Ctx, b *data.Ragged, n int) *tensor.Tensor {
	B := b.B()
	tokens, segments := make([]int, B*n), make([]int, B*n)
	mask := tensor.New(B, n)
	for s := 0; s < B; s++ {
		ln := copy(tokens[s*n:(s+1)*n], b.Tokens[b.Offsets[s]:b.Offsets[s+1]])
		copy(segments[s*n:], b.Segments[b.Offsets[s]:b.Offsets[s+1]])
		for i := ln; i < n; i++ {
			mask.Set(-1e9, s, i)
		}
	}
	seq := m.Embed.Forward(ctx, tokens, segments, B, n)
	for _, layer := range m.Layers {
		seq = layer.Forward(ctx, seq, B, n, mask)
	}
	return seq
}

// TestRaggedMatchesPaddedOracle: the padding-free forward computes what
// the padded, masked forward computed on the real rows — to 1e-4, with
// identical predictions, not bitwise: a sequence's attention products are
// n_s wide here and n wide there, and the per-matrix route and the
// blocking depend on that width.
func TestRaggedMatchesPaddedOracle(t *testing.T) {
	for _, causal := range []bool{false, true} {
		cfg := Tiny()
		cfg.Causal = causal
		m, err := New(cfg, 17)
		if err != nil {
			t.Fatal(err)
		}
		const n = 16
		lens := []int{16, 9, 5, 12, 1, 2}
		b, positions := raggedBatch(cfg, lens, 99)

		seq := m.EncodeEval(inferCtx(), b)
		got := m.PredictMaskedAt(inferCtx(), b, positions)

		padded := paddedEncode(m, inferCtx(), b, n)
		var rows []int
		for s, ln := range lens {
			for i := 0; i < ln; i++ {
				rr, pr := seq.Row(b.Offsets[s]+i), padded.Row(s*n+i)
				for j := range pr {
					if diff := math.Abs(float64(rr[j] - pr[j])); diff > 1e-4 {
						t.Fatalf("causal=%v seq %d pos %d dim %d: ragged %g vs padded %g", causal, s, i, j, rr[j], pr[j])
					}
				}
			}
			for _, p := range positions[s] {
				rows = append(rows, s*n+p)
			}
		}
		logits := m.mlmLogits(inferCtx(), padded, rows)
		row := 0
		for s := range lens {
			for i := range positions[s] {
				if want := argmaxRow(logits, row); got[s][i] != want {
					t.Errorf("causal=%v seq %d mask %d: ragged predicts %d, padded oracle %d", causal, s, i, got[s][i], want)
				}
				row++
			}
		}
	}
}

// predictMasked runs an inference forward pass of the pre-training model
// and returns, for every masked position, the predicted token id: the
// training-side oracle that PredictMaskedAt, the serving entry point, is
// checked against.
func (m *BERT) predictMasked(ctx *nn.Ctx, b *data.Batch) map[int]int {
	prevTrain := ctx.Train
	ctx.Train = false
	m.Forward(ctx, b)
	ctx.Train = prevTrain

	preds := make(map[int]int, len(m.mlmRows))
	for i, pos := range m.mlmRows {
		preds[pos] = argmaxRow(m.mlmProbs, i)
	}
	m.dropIterationState()
	return preds
}

// TestPredictMaskedAtAgreesWithPredictMasked: the serving entry point
// and the training-side oracle predictMasked must agree on a full
// (unpadded) batch when queried at the same positions.
func TestPredictMaskedAtAgreesWithPredictMasked(t *testing.T) {
	cfg := Tiny()
	m, err := New(cfg, 23)
	if err != nil {
		t.Fatal(err)
	}
	const B, n = 2, 16
	rng := tensor.NewRNG(5)
	b := &data.Batch{
		B: B, N: n,
		Tokens:     make([]int, B*n),
		Segments:   make([]int, B*n),
		MLMTargets: make([]int, B*n),
		NSPLabels:  make([]int, B), // predictMasked runs the full pretrain forward
	}
	rb := &data.Ragged{}
	positions := make([][]int, B)
	for s := 0; s < B; s++ {
		base := s * n
		b.Tokens[base] = data.ClsID
		for i := 1; i < n; i++ {
			b.Tokens[base+i] = data.FirstWordID + rng.Intn(cfg.Vocab-data.FirstWordID)
		}
		for i := range b.MLMTargets[base : base+n] {
			b.MLMTargets[base+i] = kernels.IgnoreIndex
		}
		for _, p := range []int{2, 7, n - 1} {
			b.Tokens[base+p] = data.MaskID
			b.MLMTargets[base+p] = data.FirstWordID // any real target; only position matters
			positions[s] = append(positions[s], p)
		}
		rb.Append(b.Tokens[base:base+n], nil)
	}

	got := m.PredictMaskedAt(inferCtx(), rb, positions)
	want := m.predictMasked(inferCtx(), b)
	for s := range positions {
		for i, p := range positions[s] {
			if w := want[s*n+p]; got[s][i] != w {
				t.Errorf("seq %d pos %d: PredictMaskedAt %d, PredictMasked %d", s, p, got[s][i], w)
			}
		}
	}
}

// TestPredictMaskedAtEmptyPositions: sequences with no queried
// positions cost no head work and return empty rows.
func TestPredictMaskedAtEmptyPositions(t *testing.T) {
	cfg := Tiny()
	m, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := raggedBatch(cfg, []int{5, 7}, 1)
	out := m.PredictMaskedAt(inferCtx(), batch, [][]int{nil, nil})
	if len(out) != 2 || out[0] != nil || out[1] != nil {
		t.Fatalf("want two empty rows, got %v", out)
	}
}

// TestPredictMaskedAtValidation: malformed queries panic loudly instead
// of reading another sequence's rows.
func TestPredictMaskedAtValidation(t *testing.T) {
	cfg := Tiny()
	m, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := raggedBatch(cfg, []int{5, 8}, 1)
	for name, positions := range map[string][][]int{
		"wrong sequence count":   {{1}},
		"position past sequence": {{5}, {1}},
		"negative position":      {{1}, {-1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			m.PredictMaskedAt(inferCtx(), batch, positions)
		}()
	}
}

// TestRaggedWorkspaceReuseBitwise: an evaluation forward on a context whose
// workspace already holds a larger batch — slots bigger than needed, full
// of that batch's activations — computes a short batch's encoder rows and
// logits bit for bit as a fresh context does, and so does the larger batch
// after it. A producer that left any element of its output unwritten
// would read the earlier batch's values here. Same routes, causal or not,
// as TestRaggedBatchBitwiseMatchesAlone.
func TestRaggedWorkspaceReuseBitwise(t *testing.T) {
	wide := Config{Vocab: 256, MaxPos: 32, NumLayers: 2, DModel: 128, Heads: 2, DFF: 256, DropProb: 0.1}
	for _, tc := range []struct {
		path kernels.GEMMPath
		cfg  Config
	}{
		{kernels.GEMMPathNaive, Tiny()},
		{kernels.GEMMPathBlocked, Tiny()},
		{kernels.GEMMPathFused, Tiny()},
		{kernels.GEMMPathAuto, wide},
	} {
		for _, causal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/causal=%v", tc.path, causal), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Causal = causal
				m, err := New(cfg, 17)
				if err != nil {
					t.Fatal(err)
				}
				large, largePos := raggedBatch(cfg, []int{cfg.MaxPos, 9, cfg.MaxPos, 5, cfg.MaxPos/2 + 1}, 98)
				short, shortPos := raggedBatch(cfg, []int{3, 1, 7}, 99)
				fresh := func(b *data.Ragged, ps [][]int) (seq, logits *tensor.Tensor) {
					return encodeAndLogits(m, &nn.Ctx{Route: tc.path}, b, ps)
				}
				wantLarge, wantLargeLogits := fresh(large, largePos)
				wantShort, wantShortLogits := fresh(short, shortPos)

				ctx := &nn.Ctx{Route: tc.path}
				for k, step := range []struct {
					name        string
					b           *data.Ragged
					ps          [][]int
					seq, logits *tensor.Tensor
				}{
					{"large", large, largePos, wantLarge, wantLargeLogits},
					{"short after large", short, shortPos, wantShort, wantShortLogits},
					{"large after short", large, largePos, wantLarge, wantLargeLogits},
					{"short again", short, shortPos, wantShort, wantShortLogits},
				} {
					seq, logits := encodeAndLogits(m, ctx, step.b, step.ps)
					for _, p := range []struct {
						what      string
						got, want *tensor.Tensor
					}{{"encoder rows", seq, step.seq}, {"logits", logits, step.logits}} {
						if !tensor.SameShape(p.got, p.want) {
							t.Fatalf("batch %d (%s): %s shaped %v, want %v", k, step.name, p.what, p.got.Shape(), p.want.Shape())
						}
						if i := firstBitDiff(p.got.Data(), p.want.Data()); i >= 0 {
							t.Fatalf("batch %d (%s): %s differ from a fresh context's at element %d", k, step.name, p.what, i)
						}
					}
				}
			})
		}
	}
}

// firstBitDiff returns the first index at which a and b differ in their
// bits, or -1.
func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
