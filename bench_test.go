package demystbert

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index E1-E14). Two kinds of
// benchmarks coexist:
//
//   - Model benchmarks (BenchmarkFig*, BenchmarkTable2b, ...) execute the
//     analytical pipeline at BERT-Large scale and publish the modeled
//     quantities the paper reports (shares, speedups, kernel counts) as
//     custom benchmark metrics, so `go test -bench` output reads like the
//     paper's evaluation section.
//
//   - Real benchmarks (BenchmarkReal*) execute the pure-Go engine —
//     kernels, attention layers, LAMB, full training iterations — and
//     measure actual wall-clock time, validating operator manifestation
//     (E14) and the fusion result (E11) on real hardware.
//
// Run everything with:
//
//	go test -bench=. -benchmem
import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/dist"
	"demystbert/internal/distnet"
	"demystbert/internal/fusion"
	"demystbert/internal/kernels"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/opgraph"
	"demystbert/internal/optim"
	"demystbert/internal/perfmodel"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// ---------------------------------------------------------------------------
// E1: Table 2b — GEMM dimension enumeration.

func BenchmarkTable2bGraphBuild(b *testing.B) {
	w := Phase1(BERTLarge(), 32, FP32)
	var g *Graph
	for i := 0; i < b.N; i++ {
		g = BuildGraph(w)
	}
	b.ReportMetric(float64(g.KernelCount()), "kernels")
	b.ReportMetric(float64(len(g.GEMMs())), "gemm-ops")
}

// ---------------------------------------------------------------------------
// E2: Fig. 3 — runtime breakdown per configuration.

func benchFig3(b *testing.B, w Workload) {
	dev := MI100()
	var r *Result
	for i := 0; i < b.N; i++ {
		r = Characterize(w, dev)
	}
	b.ReportMetric(1e3*r.Total.Seconds(), "modeled-ms")
	b.ReportMetric(100*r.ClassShare(opgraph.ClassTransformer), "transformer-%")
	b.ReportMetric(100*r.LAMBShare(), "lamb-%")
	b.ReportMetric(100*r.ClassShare(opgraph.ClassOutput), "output-%")
}

func BenchmarkFig3_Ph1B32FP32(b *testing.B) { benchFig3(b, Phase1(BERTLarge(), 32, FP32)) }
func BenchmarkFig3_Ph1B4FP32(b *testing.B)  { benchFig3(b, Phase1(BERTLarge(), 4, FP32)) }
func BenchmarkFig3_Ph2B4FP32(b *testing.B)  { benchFig3(b, Phase2(BERTLarge(), 4, FP32)) }
func BenchmarkFig3_Ph1B32FP16(b *testing.B) { benchFig3(b, Phase1(BERTLarge(), 32, Mixed)) }
func BenchmarkFig3_Ph2B4FP16(b *testing.B)  { benchFig3(b, Phase2(BERTLarge(), 4, Mixed)) }

// ---------------------------------------------------------------------------
// E3: Fig. 4 — hierarchical breakdown.

func benchFig4(b *testing.B, p Precision) {
	dev := MI100()
	var r *Result
	for i := 0; i < b.N; i++ {
		r = Characterize(Phase1(BERTLarge(), 32, p), dev)
	}
	b.ReportMetric(100*r.CategoryShare(profile.CatLinear), "linear-%")
	b.ReportMetric(100*r.CategoryShare(profile.CatFCGEMM), "fcgemm-%")
	b.ReportMetric(100*r.AttentionOpsShare(), "attention-ops-%")
	b.ReportMetric(100*r.LinearFCShare(), "linear+fc-%")
}

func BenchmarkFig4_FP32(b *testing.B) { benchFig4(b, FP32) }
func BenchmarkFig4_MP(b *testing.B)   { benchFig4(b, Mixed) }

// ---------------------------------------------------------------------------
// E4: Fig. 6 — GEMM arithmetic intensities.

func BenchmarkFig6GEMMIntensity(b *testing.B) {
	// Graph construction and GEMM extraction are setup, not the measured
	// quantity: hoisting them out of the loop keeps the benchmark at zero
	// steady-state allocations so -benchmem regressions point at the
	// intensity computation itself.
	gemms := BuildGraph(Phase1(BERTLarge(), 32, FP32)).GEMMs()
	b.ReportAllocs()
	b.ResetTimer()
	var fc, lin, score float64
	for i := 0; i < b.N; i++ {
		for _, op := range gemms {
			switch op.Name {
			case "fc1_fwd":
				fc = op.Intensity()
			case "linear_qkv_fwd":
				lin = op.Intensity()
			case "attn_score_bgemm":
				score = op.Intensity()
			}
		}
	}
	b.ReportMetric(fc, "fc-ops/byte")
	b.ReportMetric(lin, "linear-ops/byte")
	b.ReportMetric(score, "attn-score-ops/byte")
}

// ---------------------------------------------------------------------------
// E5: Fig. 7 — per-class intensity and bandwidth demand.

func BenchmarkFig7Bandwidth(b *testing.B) {
	dev := MI100()
	var bwMap map[profile.Category]float64
	for i := 0; i < b.N; i++ {
		bwMap = Characterize(Phase1(BERTLarge(), 32, FP32), dev).CategoryBW()
	}
	var maxBW float64
	for _, v := range bwMap {
		if v > maxBW {
			maxBW = v
		}
	}
	b.ReportMetric(100*bwMap[profile.CatLAMBStage1]/maxBW, "lamb1-normBW-%")
	b.ReportMetric(100*bwMap[profile.CatAttnBGEMM]/maxBW, "attnGEMM-normBW-%")
	b.ReportMetric(100*bwMap[profile.CatFCGEMM]/maxBW, "fcGEMM-normBW-%")
}

// ---------------------------------------------------------------------------
// E6: Fig. 8 — input-size sweep.

func BenchmarkFig8InputSweep(b *testing.B) {
	dev := MI100()
	cfg := BERTLarge()
	var lamb4, lamb32, attn128, attn512 float64
	for i := 0; i < b.N; i++ {
		lamb4 = Characterize(Phase1(cfg, 4, FP32), dev).LAMBShare()
		lamb32 = Characterize(Phase1(cfg, 32, FP32), dev).LAMBShare()
		attn128 = Characterize(Phase1(cfg, 16, FP32), dev).AttentionOpsShare()
		attn512 = Characterize(Phase2(cfg, 4, FP32), dev).AttentionOpsShare()
	}
	b.ReportMetric(100*lamb4, "lamb-B4-%")
	b.ReportMetric(100*lamb32, "lamb-B32-%")
	b.ReportMetric(100*attn128, "attn-n128-%")
	b.ReportMetric(100*attn512, "attn-n512-%")
}

// ---------------------------------------------------------------------------
// E7: Fig. 9 — layer-size sweep.

func BenchmarkFig9ModelSweep(b *testing.B) {
	dev := MI100()
	var shares [3]float64
	for i := 0; i < b.N; i++ {
		for j, d := range []int{512, 1024, 2048} {
			cfg := BERTLarge()
			cfg.DModel, cfg.DFF, cfg.Heads = d, 4*d, d/64
			shares[j] = Characterize(Phase1(cfg, 4, FP32), dev).LAMBShare()
		}
	}
	b.ReportMetric(100*shares[0], "lamb-C1-%")
	b.ReportMetric(100*shares[1], "lamb-C2-%")
	b.ReportMetric(100*shares[2], "lamb-C3-%")
}

// ---------------------------------------------------------------------------
// E8: Section 4 — activation checkpointing.

func BenchmarkCheckpointing(b *testing.B) {
	dev := MI100()
	var kinc, rinc float64
	for i := 0; i < b.N; i++ {
		base := Characterize(Phase1(BERTLarge(), 32, FP32), dev)
		w := Phase1(BERTLarge(), 32, FP32)
		w.CheckpointEvery = 6
		ck := Characterize(w, dev)
		kinc = 100 * (float64(ck.KernelCount())/float64(base.KernelCount()) - 1)
		rinc = 100 * (float64(ck.Total)/float64(base.Total) - 1)
	}
	b.ReportMetric(kinc, "kernel-increase-%")
	b.ReportMetric(rinc, "runtime-increase-%")
}

// ---------------------------------------------------------------------------
// E9: Fig. 11 — multi-device profiles.

func BenchmarkFig11Distributed(b *testing.B) {
	dev := MI100()
	var ps []DistProfile
	for i := 0; i < b.N; i++ {
		ps = Fig11Profiles(Phase1(BERTLarge(), 16, FP32), dev)
	}
	b.ReportMetric(100*ps[1].CommShare(), "D1-comm-%")
	b.ReportMetric(100*ps[2].CommShare(), "D2-comm-%")
	b.ReportMetric(100*ps[3].CommShare(), "T1-comm-%")
	b.ReportMetric(100*ps[4].CommShare(), "T2-comm-%")
}

// ---------------------------------------------------------------------------
// E10: Fig. 12a — kernel-fusion study (model).

func BenchmarkFig12aLayerNormFusion(b *testing.B) {
	dev := MI100()
	var s fusion.Study
	for i := 0; i < b.N; i++ {
		s = fusion.TransformerLayerNormStudy(Phase1(BERTLarge(), 32, FP32), dev)
	}
	b.ReportMetric(s.KernelRatio(), "kernel-ratio")
	b.ReportMetric(s.TrafficRatio(), "traffic-ratio")
	b.ReportMetric(s.Speedup(), "speedup")
}

func BenchmarkFig12aAdamFusion(b *testing.B) {
	dev := MI100()
	var s fusion.Study
	for i := 0; i < b.N; i++ {
		s = fusion.ModelAdamStudy(Phase1(BERTLarge(), 32, FP32), 320, dev)
	}
	b.ReportMetric(s.KernelRatio(), "kernel-ratio")
	b.ReportMetric(s.TrafficRatio(), "traffic-ratio")
	b.ReportMetric(s.Speedup(), "speedup")
}

// ---------------------------------------------------------------------------
// E11: Fig. 12b — QKV GEMM fusion: model plus REAL execution.

func BenchmarkFig12bQKVFusionModel(b *testing.B) {
	dev := MI100()
	var small, large fusion.Study
	for i := 0; i < b.N; i++ {
		small = fusion.QKV(512, 1024, FP32, dev)
		large = fusion.QKV(8192, 1024, FP32, dev)
	}
	b.ReportMetric(100*(small.Speedup()-1), "small-input-speedup-%")
	b.ReportMetric(100*(large.Speedup()-1), "large-input-speedup-%")
}

// Real 3S-vs-3F execution at engine scale: three serial GEMMs against one
// fused GEMM over the concatenated weights.
func benchQKVReal(b *testing.B, fused bool, tokens, d int) {
	r := tensor.NewRNG(1)
	x := make([]float32, tokens*d)
	wq := make([]float32, d*d)
	wk := make([]float32, d*d)
	wv := make([]float32, d*d)
	wCat := make([]float32, 3*d*d)
	for _, s := range [][]float32{x, wq, wk, wv} {
		for i := range s {
			s[i] = r.Float32() - 0.5
		}
	}
	copy(wCat, wq)
	copy(wCat[d*d:], wk)
	copy(wCat[2*d*d:], wv)
	out := make([]float32, tokens*3*d)
	b.SetBytes(int64(4 * (tokens*d + 3*d*d + 3*tokens*d)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fused {
			kernels.GEMM(false, true, tokens, 3*d, d, 1, x, wCat, 0, out)
		} else {
			kernels.GEMM(false, true, tokens, d, d, 1, x, wq, 0, out[:tokens*d])
			kernels.GEMM(false, true, tokens, d, d, 1, x, wk, 0, out[tokens*d:2*tokens*d])
			kernels.GEMM(false, true, tokens, d, d, 1, x, wv, 0, out[2*tokens*d:])
		}
	}
}

func BenchmarkFig12bRealQKVSerial(b *testing.B) { benchQKVReal(b, false, 256, 256) }
func BenchmarkFig12bRealQKVFused(b *testing.B)  { benchQKVReal(b, true, 256, 256) }

// ---------------------------------------------------------------------------
// E12: Section 6.2.1 — near-memory compute.

func BenchmarkNMC(b *testing.B) {
	var sp, e2e float64
	for i := 0; i < b.N; i++ {
		st := NMCStudy(Phase1(BERTLarge(), 32, FP32))
		sp = st.SpeedupVsOptimistic()
		e2e = st.EndToEndImprovement()
	}
	b.ReportMetric(sp, "lamb-speedup-x")
	b.ReportMetric(100*e2e, "end-to-end-%")
}

// ---------------------------------------------------------------------------
// E13: takeaway evaluation throughput.

func BenchmarkTakeawayEvaluation(b *testing.B) {
	cfg := BERTLarge()
	dev := MI100()
	for i := 0; i < b.N; i++ {
		if err := WriteArtifact(io.Discard, "takeaways", cfg, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E14 and engine benchmarks: real kernel and training execution.

func BenchmarkRealIterationTiny(b *testing.B) {
	cfg := TinyBERT()
	m, err := model.New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen := data.NewGenerator(cfg.Vocab, 0.15, 2)
	batch := gen.Next(4, 32)
	ctx := &nn.Ctx{RNG: tensor.NewRNG(3), Train: true}
	opt := optim.NewLAMB(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(ctx, batch)
		opt.Step(ctx, m.Params())
		m.ZeroGrads()
	}
}

// BenchmarkRealIterationBatchOne demonstrates Takeaway 5 in execution: a
// B=1 iteration still runs matrix-matrix kernels, not GEMV.
func BenchmarkRealIterationBatchOne(b *testing.B) {
	cfg := TinyBERT()
	m, err := model.New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen := data.NewGenerator(cfg.Vocab, 0.15, 2)
	batch := gen.Next(1, 32)
	prof := profile.New()
	ctx := &nn.Ctx{Prof: prof, RNG: tensor.NewRNG(3), Train: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(ctx, batch)
		m.ZeroGrads()
	}
	b.StopTimer()
	sum := prof.Summarize()
	b.ReportMetric(100*sum.GEMMShare(), "gemm-share-%")
}

func benchRealGEMM(b *testing.B, pool *kernels.Pool, m, n, k int) {
	r := tensor.NewRNG(1)
	x := make([]float32, m*k)
	y := make([]float32, k*n)
	z := make([]float32, m*n)
	for i := range x {
		x[i] = r.Float32()
	}
	for i := range y {
		y[i] = r.Float32()
	}
	b.SetBytes(int64(4 * (m*k + k*n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.GEMMPathAuto.GEMM(pool, false, false, m, n, k, 1, x, y, 0, z)
	}
	b.ReportMetric(float64(2*m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// Scaled-down Table 2b shapes (1/8 linear dimensions of BERT-Large Ph1-B32).
func BenchmarkRealGEMMLinearShape(b *testing.B) { benchRealGEMM(b, nil, 128, 512, 128) }
func BenchmarkRealGEMMFCShape(b *testing.B)     { benchRealGEMM(b, nil, 512, 512, 128) }

func BenchmarkRealAttentionBGEMMShape(b *testing.B) {
	// 64 batched 16x16x8 GEMMs — the skinny memory-bound manifestation.
	const batch, n, dh = 64, 16, 8
	r := tensor.NewRNG(1)
	q := make([]float32, batch*n*dh)
	k := make([]float32, batch*n*dh)
	s := make([]float32, batch*n*n)
	for i := range q {
		q[i] = r.Float32()
		k[i] = r.Float32()
	}
	b.SetBytes(int64(4 * (2*batch*n*dh + batch*n*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.BatchedGEMM(batch, false, true, n, n, dh, 1, q, n*dh, k, n*dh, 0, s, n*n)
	}
}

func BenchmarkRealSoftmax(b *testing.B) {
	const rows, n = 2048, 128
	r := tensor.NewRNG(1)
	x := make([]float32, rows*n)
	y := make([]float32, rows*n)
	for i := range x {
		x[i] = r.Float32()
	}
	b.SetBytes(int64(8 * rows * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		process.Softmax(y, x, rows, n)
	}
}

func BenchmarkRealLayerNorm(b *testing.B) {
	const rows, n = 2048, 256
	r := tensor.NewRNG(1)
	x := make([]float32, rows*n)
	y := make([]float32, rows*n)
	gamma := make([]float32, n)
	beta := make([]float32, n)
	mean := make([]float32, rows)
	invStd := make([]float32, rows)
	for i := range x {
		x[i] = r.Float32()
	}
	for i := range gamma {
		gamma[i] = 1
	}
	b.SetBytes(int64(8 * rows * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		process.LayerNormForward(y, x, gamma, beta, mean, invStd, rows, n, 1e-5)
	}
}

func BenchmarkRealGeLU(b *testing.B) {
	const n = 1 << 19
	r := tensor.NewRNG(1)
	x := make([]float32, n)
	y := make([]float32, n)
	for i := range x {
		x[i] = r.Float32() - 0.5
	}
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		process.GeLUForward(y, x)
	}
}

// Real LAMB update over a tiny model's parameter population (Takeaway 7's
// memory-intensive pattern).
func BenchmarkRealLAMBStep(b *testing.B) {
	m, err := model.New(TinyBERT(), 1)
	if err != nil {
		b.Fatal(err)
	}
	params := m.Params()
	r := tensor.NewRNG(2)
	for _, p := range params {
		p.Grad.FillUniform(r, -0.01, 0.01)
	}
	ctx := &nn.Ctx{RNG: tensor.NewRNG(3), Train: true}
	opt := optim.NewLAMB(0.001)
	// Step's global-norm pre-pass reads 1 FP32 array (Prepare's
	// totalBytes), stage 1 reads 4 and writes 3, stage 2 reads 2 and
	// writes 1 (Apply's EWBytes calls in internal/optim/lamb.go).
	var bytes int64
	for _, p := range params {
		bytes += int64(p.Size()) * (1 + 4 + 3 + 2 + 1) * 4
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(ctx, params)
	}
}

// Real DP AllReduce cost model evaluation speed (used inside Fig. 11).
func BenchmarkDistModelEvaluation(b *testing.B) {
	dev := MI100()
	r := perfmodel.Run(opgraph.Build(Phase1(BERTLarge(), 16, FP32)), dev)
	for i := 0; i < b.N; i++ {
		dist.DataParallel("D2", r, 128, true)
	}
}

// ---------------------------------------------------------------------------
// Ablations and extensions beyond the paper's headline experiments.

// Fused attention-score pipeline at BERT-Large scale: how much of the
// Scale+Mask+DR+SM share does the Section 6.1.1 fusion recover?
func BenchmarkAblationFusedAttentionModel(b *testing.B) {
	dev := MI100()
	var base, fused *Result
	for i := 0; i < b.N; i++ {
		w := Phase1(BERTLarge(), 32, FP32)
		base = Characterize(w, dev)
		w.FusedAttention = true
		fused = Characterize(w, dev)
	}
	b.ReportMetric(1e3*base.Total.Seconds(), "baseline-ms")
	b.ReportMetric(1e3*fused.Total.Seconds(), "fused-ms")
	b.ReportMetric(100*(float64(base.Total)/float64(fused.Total)-1), "iteration-speedup-%")
}

// Decoder (causal) vs encoder training cost — Section 2.3's claim that
// masking does not affect training cost structure.
func BenchmarkRealCausalVsEncoder(b *testing.B) {
	for _, causal := range []bool{false, true} {
		name := "encoder"
		if causal {
			name = "decoder-causal"
		}
		b.Run(name, func(b *testing.B) {
			cfg := TinyBERT()
			cfg.Causal = causal
			m, err := model.New(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			batch := data.NewGenerator(cfg.Vocab, 0.15, 2).Next(4, 32)
			ctx := &nn.Ctx{RNG: tensor.NewRNG(3), Train: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(ctx, batch)
				m.ZeroGrads()
			}
		})
	}
}

// Run-mode comparison (Section 7): pre-training vs fine-tuning vs
// inference modeled iteration times.
func BenchmarkModesComparison(b *testing.B) {
	dev := MI100()
	times := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, mode := range []RunMode{Pretraining, FineTuning, Inference} {
			w := Phase1(BERTLarge(), 32, FP32)
			w.Mode = mode
			if mode == Inference {
				w.Optimizer = opgraph.OptNone
			}
			times[mode.String()] = Characterize(w, dev).Total.Seconds()
		}
	}
	b.ReportMetric(1e3*times["pretrain"], "pretrain-ms")
	b.ReportMetric(1e3*times["finetune"], "finetune-ms")
	b.ReportMetric(1e3*times["inference"], "inference-ms")
}

// ZeRO and in-network processing extensions (Sections 5.2 and 6.2.3).
func BenchmarkZeROExtension(b *testing.B) {
	dev := MI100()
	r := perfmodel.Run(opgraph.Build(Phase1(BERTLarge(), 16, FP32)), dev)
	var z, d1 dist.Profile
	for i := 0; i < b.N; i++ {
		z = dist.ZeRO("ZeRO-128", r, 128, dev)
		d1 = dist.DataParallel("D1", r, 128, false)
	}
	b.ReportMetric(100*z.Share(opgraph.ClassLAMB), "zero-update-%")
	b.ReportMetric(100*dist.SingleGPU("s", r).Share(opgraph.ClassLAMB), "baseline-update-%")
	b.ReportMetric(100*z.CommShare(), "zero-comm-%")
	b.ReportMetric(100*d1.CommShare(), "dp-comm-%")
}

func BenchmarkInNetworkAllReduce(b *testing.B) {
	dev := MI100()
	w := Phase1(BERTLarge(), 64, FP32)
	var ring, innet dist.Profile
	for i := 0; i < b.N; i++ {
		ring = dist.TensorSlicing("T2", w, 8, dev)
		innet = dist.TensorSlicingInNetwork("T2-innet", w, 8, dev)
	}
	b.ReportMetric(100*ring.CommShare(), "ring-comm-%")
	b.ReportMetric(100*innet.CommShare(), "innetwork-comm-%")
}

// Model checkpoint serialization throughput.
func BenchmarkModelSaveLoad(b *testing.B) {
	m, err := model.New(TinyBERT(), 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := m.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := model.Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// process is the process pool, which a nil *kernels.Pool means.
var process *kernels.Pool

// ablationPools holds one pool per width the ablation runs at.
var ablationPools = map[int]*kernels.Pool{1: kernels.NewPool(1), 2: kernels.NewPool(2), 4: kernels.NewPool(4), 8: kernels.NewPool(8)}

// Engine parallel-scaling ablation: GEMM throughput vs worker count.
func BenchmarkAblationGEMMWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchRealGEMM(b, ablationPools[workers], 256, 256, 256)
		})
	}
}

// Activation-memory footprint model (Section 4's capacity motivation).
func BenchmarkMemoryFootprint(b *testing.B) {
	var plain, ck int64
	var maxB, maxBCk int
	for i := 0; i < b.N; i++ {
		w := Phase1(BERTLarge(), 32, FP32)
		plain = opgraph.Footprint(w).Total()
		maxB = opgraph.MaxBatchSize(Phase1(BERTLarge(), 1, FP32), 32e9)
		w.CheckpointEvery = 6
		ck = opgraph.Footprint(w).Total()
		wc := Phase1(BERTLarge(), 1, FP32)
		wc.CheckpointEvery = 6
		maxBCk = opgraph.MaxBatchSize(wc, 32e9)
	}
	b.ReportMetric(float64(plain)/1e9, "plain-GB")
	b.ReportMetric(float64(ck)/1e9, "checkpointed-GB")
	b.ReportMetric(float64(maxB), "maxB-32GB")
	b.ReportMetric(float64(maxBCk), "maxB-32GB-ckpt")
}

// Real m-way tensor-sliced encoder layer: one loopback rank per shard,
// its four AllReduces over the ring's TCP sockets. The reported time is
// one forward pass of all ranks.
func BenchmarkRealTensorSlicedLayer(b *testing.B) {
	r := tensor.NewRNG(1)
	ref := nn.NewEncoderLayer("ref", 64, 4, 256, 0, r)
	for _, m := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ways=%d", m), func(b *testing.B) {
			groups, err := distnet.JoinLoopback(m, 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				for _, g := range groups {
					g.Close()
				}
			}()
			layers := make([]*distnet.SlicedLayer, m)
			for i, g := range groups {
				if layers[i], err = distnet.NewSlicedLayer(g, ref); err != nil {
					b.Fatal(err)
				}
			}
			x := tensor.New(4*32, 64)
			x.FillUniform(r, -1, 1)
			errs := make([]error, m)
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := range layers {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ctx := &nn.Ctx{RNG: tensor.NewRNG(2), Train: true}
					for n := 0; n < b.N && errs[i] == nil; n++ {
						_, errs[i] = layers[i].Forward(ctx, x, 4, 32)
					}
				}(i)
			}
			wg.Wait()
			for rank, err := range errs {
				if err != nil {
					b.Fatalf("rank %d: %v", rank, err)
				}
			}
		})
	}
}

// Optimizer-choice ablation: LAMB vs fused Adam vs SGD update phases.
func BenchmarkAblationOptimizerChoice(b *testing.B) {
	dev := MI100()
	times := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for name, k := range map[string]opgraph.OptimizerKind{
			"lamb": opgraph.OptLAMB, "adam": opgraph.OptAdam, "sgd": opgraph.OptSGD,
		} {
			w := Phase1(BERTLarge(), 32, FP32)
			w.Optimizer = k
			r := Characterize(w, dev)
			times[name] = 1e3 * r.ByClass()[opgraph.ClassLAMB].Seconds()
		}
	}
	b.ReportMetric(times["lamb"], "lamb-update-ms")
	b.ReportMetric(times["adam"], "adam-update-ms")
	b.ReportMetric(times["sgd"], "sgd-update-ms")
}

// ---------------------------------------------------------------------------
// Table 2 GEMM shapes at full BERT-Large scale (B=4, seq 128 => 512 tokens).
// Each shape runs the cache-blocked path (kernels.GEMM, packs B per call),
// the pre-packed path (kernels.GEMMPacked consuming a PackedB built once,
// as nn.Linear does via the Param pack cache), and the naive reference
// (kernels.GEMMPathNaive) so the speedups are measured in-tree:
//
//	go test -bench GEMMPaperSizes -benchmem .
//
// The packed variant is only meaningful where the B operand is a weight
// (qkv/fc forward NT, dgrad NN); wgrad's B is an activation tensor and is
// never cached, so it has no packed row.
func BenchmarkGEMMPaperSizes(b *testing.B) {
	shapes := []struct {
		name    string
		ta, tb  bool
		m, n, k int
		weightB bool // B is a parameter: eligible for the pre-packed path
	}{
		{"qkv_fwd_NT_512x1024x1024", false, true, 512, 1024, 1024, true},
		{"fc1_fwd_NT_512x4096x1024", false, true, 512, 4096, 1024, true},
		{"fc2_fwd_NT_512x1024x4096", false, true, 512, 1024, 4096, true},
		{"wgrad_TN_1024x1024x512", true, false, 1024, 1024, 512, false},
		{"dgrad_NN_512x1024x1024", false, false, 512, 1024, 1024, true},
	}
	impls := []struct {
		name string
		run  func(ta, tb bool, m, n, k int, a, bm, c []float32)
	}{
		{"blocked", func(ta, tb bool, m, n, k int, a, bm, c []float32) {
			kernels.GEMM(ta, tb, m, n, k, 1, a, bm, 0, c)
		}},
		{"naive", func(ta, tb bool, m, n, k int, a, bm, c []float32) {
			kernels.GEMMPathNaive.GEMM(nil, ta, tb, m, n, k, 1, a, bm, 0, c)
		}},
	}
	for _, s := range shapes {
		for _, im := range impls {
			b.Run(s.name+"/"+im.name, func(b *testing.B) {
				r := tensor.NewRNG(1)
				a := make([]float32, s.m*s.k)
				bm := make([]float32, s.k*s.n)
				c := make([]float32, s.m*s.n)
				for i := range a {
					a[i] = r.Float32()
				}
				for i := range bm {
					bm[i] = r.Float32()
				}
				im.run(s.ta, s.tb, s.m, s.n, s.k, a, bm, c) // warm pools
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					im.run(s.ta, s.tb, s.m, s.n, s.k, a, bm, c)
				}
				flops := float64(2*s.m*s.n*s.k) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
		if !s.weightB {
			continue
		}
		b.Run(s.name+"/packed", func(b *testing.B) {
			r := tensor.NewRNG(1)
			a := make([]float32, s.m*s.k)
			bm := make([]float32, s.k*s.n)
			c := make([]float32, s.m*s.n)
			for i := range a {
				a[i] = r.Float32()
			}
			for i := range bm {
				bm[i] = r.Float32()
			}
			pb := kernels.PackWeight(s.tb, s.n, s.k, bm)
			kernels.GEMMPacked(s.ta, s.m, s.n, s.k, 1, a, pb, 0, c) // warm pools
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.GEMMPacked(s.ta, s.m, s.n, s.k, 1, a, pb, 0, c)
			}
			flops := float64(2*s.m*s.n*s.k) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
	// Table 2b batched attention shapes: per-(batch x head) score products
	// n x n x dHead (NT) and context products n x dHead x n (NN), at
	// sequence lengths 128 (phase-1) and 512 (phase-2) plus the real-engine
	// TinyBERT shape (n=16, dHead=8), where each per-head product is below
	// smallGEMMFlops and runs the naive loops.
	type bshape struct {
		name       string
		ta, tb     bool
		batch      int
		m, n, k    int
		sA, sB, sC int
	}
	var bshapes []bshape
	for _, cfg := range []struct {
		n, dh int
		batch int
	}{
		{16, 8, 64}, // TinyBERT real-engine shape (B=4 x 16 heads... B=16 x 4 heads)
		{128, 64, 8},
		{128, 64, 64},
		{512, 64, 8},
		{512, 64, 64},
	} {
		n, dh, batch := cfg.n, cfg.dh, cfg.batch
		bshapes = append(bshapes,
			bshape{
				name: fmt.Sprintf("attn_score_NT_b%d_%dx%dx%d", batch, n, n, dh),
				ta:   false, tb: true, batch: batch,
				m: n, n: n, k: dh, sA: n * dh, sB: n * dh, sC: n * n,
			},
			bshape{
				name: fmt.Sprintf("attn_ctx_NN_b%d_%dx%dx%d", batch, n, dh, n),
				ta:   false, tb: false, batch: batch,
				m: n, n: dh, k: n, sA: n * n, sB: n * dh, sC: n * dh,
			},
		)
	}
	for _, s := range bshapes {
		b.Run(s.name, func(b *testing.B) {
			r := tensor.NewRNG(1)
			a := make([]float32, s.batch*s.sA)
			bm := make([]float32, s.batch*s.sB)
			c := make([]float32, s.batch*s.sC)
			for i := range a {
				a[i] = r.Float32()
			}
			for i := range bm {
				bm[i] = r.Float32()
			}
			run := func() {
				kernels.BatchedGEMM(s.batch, s.ta, s.tb, s.m, s.n, s.k, 1, a, s.sA, bm, s.sB, 0, c, s.sC)
			}
			run() // warm pools
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			flops := float64(2*s.batch*s.m*s.n*s.k) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// ---------------------------------------------------------------------------
// Fused GEMM epilogues — Section 6.1's fusion argument executed for real.

// benchRealFFNEpilogue runs the full FFN block — FC1 + bias + GeLU, then
// FC2 + bias + residual + LayerNorm — at a Table 2 shape (512 tokens of
// BERT-Large: d=1024, dff=4096). The unfused baseline is the legacy
// sequence on the blocked engine: per-call weight packing and separate
// AddBias / GeLUForward / Add / LayerNormForward passes, each of which is
// a full DRAM round trip of the activation. The fused variant consumes
// pre-packed weights (as nn.Linear does via the Param pack cache) and
// folds every tail operator into the GEMM tile write-back. Both legs save
// the training-time backward state (pre-activations, LN statistics).
func benchRealFFNEpilogue(b *testing.B, fused bool) {
	const tokens, d, dff = 512, 1024, 4096
	r := tensor.NewRNG(1)
	x := make([]float32, tokens*d)
	w1 := make([]float32, dff*d)
	b1 := make([]float32, dff)
	w2 := make([]float32, d*dff)
	b2 := make([]float32, d)
	gamma := make([]float32, d)
	beta := make([]float32, d)
	for _, s := range [][]float32{x, w1, b1, w2, b2, beta} {
		for i := range s {
			s[i] = r.Float32() - 0.5
		}
	}
	for i := range gamma {
		gamma[i] = 1
	}
	h := make([]float32, tokens*dff) // FC1 pre-activation
	a := make([]float32, tokens*dff) // GeLU output
	y := make([]float32, tokens*d)   // FC2 output
	res := make([]float32, tokens*d) // pre-LN sum
	out := make([]float32, tokens*d) // LN output
	mean := make([]float32, tokens)
	invStd := make([]float32, tokens)
	const eps = 1e-5
	pb1 := kernels.PackWeight(true, dff, d, w1)
	pb2 := kernels.PackWeight(true, d, dff, w2)
	ep1 := &kernels.Epilogue{Kind: kernels.EpilogueBiasGeLU, Bias: b1, X: h}
	ep2 := &kernels.Epilogue{
		Kind: kernels.EpilogueBiasResidualLayerNorm,
		Bias: b2, Residual: x, Gamma: gamma, Beta: beta, Eps: eps,
		X: res, Mean: mean, InvStd: invStd,
	}
	run := func() {
		if fused {
			kernels.GEMMPathAuto.GEMMPackedEpilogue(nil, false, tokens, dff, d, 1, x, pb1, ep1, a)
			kernels.GEMMPathAuto.GEMMPackedEpilogue(nil, false, tokens, d, dff, 1, a, pb2, ep2, out)
			return
		}
		kernels.GEMM(false, true, tokens, dff, d, 1, x, w1, 0, h)
		process.AddBias(h, b1, tokens, dff)
		process.GeLUForward(a, h)
		kernels.GEMM(false, true, tokens, d, dff, 1, a, w2, 0, y)
		process.AddBias(y, b2, tokens, d)
		kernels.Add(res, y, x)
		process.LayerNormForward(out, res, gamma, beta, mean, invStd, tokens, d, eps)
	}
	run() // warm pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	flops := float64(2*tokens*dff*d+2*tokens*d*dff) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkRealFFNUnfusedTail(b *testing.B)   { benchRealFFNEpilogue(b, false) }
func BenchmarkRealFFNFusedEpilogue(b *testing.B) { benchRealFFNEpilogue(b, true) }

// Reworked bias kernels: AddBias dispatches flattened element ranges (so
// short-and-wide activations still use the full pool) and BiasGrad sweeps
// row-major column bands instead of stride-n column walks.
func BenchmarkRealAddBias(b *testing.B) {
	for _, s := range []struct {
		name string
		m, n int
	}{
		{"short-wide_8x4096", 8, 4096},
		{"tall_2048x1024", 2048, 1024},
	} {
		b.Run(s.name, func(b *testing.B) {
			r := tensor.NewRNG(1)
			x := make([]float32, s.m*s.n)
			bias := make([]float32, s.n)
			for i := range x {
				x[i] = r.Float32()
			}
			process.AddBias(x, bias, s.m, s.n) // warm pools
			b.SetBytes(int64(8 * s.m * s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				process.AddBias(x, bias, s.m, s.n)
			}
		})
	}
}

func BenchmarkRealBiasGrad(b *testing.B) {
	for _, s := range []struct {
		name string
		m, n int
	}{
		{"short-wide_8x4096", 8, 4096},
		{"tall_2048x1024", 2048, 1024},
	} {
		b.Run(s.name, func(b *testing.B) {
			r := tensor.NewRNG(1)
			dY := make([]float32, s.m*s.n)
			dB := make([]float32, s.n)
			for i := range dY {
				dY[i] = r.Float32()
			}
			process.BiasGrad(dB, dY, s.m, s.n) // warm pools
			b.SetBytes(int64(4 * s.m * s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				process.BiasGrad(dB, dY, s.m, s.n)
			}
		})
	}
}
