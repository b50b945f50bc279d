package audit

import (
	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// Fixed seeds: weights, dropout streams, and data are all deterministic so
// every mode of a subject sees the identical problem.
const (
	weightSeed = 12345
	ctxSeed    = 999
	dataSeed   = 7
)

// Deliberately awkward shapes: odd dims force edge tiles in the blocked
// engines, k below the micro-panel width exercises the padded pack paths,
// and tiny batched products are shapes the size heuristics would never
// route to the fast paths on their own.
const (
	linIn, linOut, linTokens = 19, 23, 17
	ffDModel, ffDFF, ffTok   = 19, 37, 13
	lnDim, lnRows            = 21, 11
	attnDModel, attnHeads    = 24, 3
	attnB, attnN             = 2, 7
	encDModel, encHeads      = 16, 2
	encDFF                   = 32
	encB, encN               = 2, 8
	stepB, stepN             = 2, 8
)

func stepConfig(fused bool) model.Config {
	return model.Config{
		Vocab: 101, MaxPos: 16, NumLayers: 2,
		DModel: 16, Heads: 2, DFF: 32,
		DropProb: 0.1, FusedAttention: fused,
	}
}

// Subject is one auditable unit: a module or a full training step.
type Subject struct {
	Name string
	// HasAttention: the fused-softmax dimension applies.
	HasAttention bool
	// HasCkpt: the activation-checkpointing dimension applies.
	HasCkpt bool
	// NoGEMM: the subject runs no GEMM, so its trace is the same on every
	// route.
	NoGEMM bool
	// Run builds a fresh, deterministically-seeded instance and runs one
	// forward+backward pass under mode m (whose worker count the caller
	// has already applied), returning the comparison trace.
	Run func(m Mode) *Trace
	// GradCheck compares analytic gradients against central differences
	// on sampled coordinates under mode m. Nil for subjects where the
	// module gradient is already covered by a containing subject.
	GradCheck func(m Mode) []Divergence
	// Steps runs an n-step training loop (forward+backward+LAMB update)
	// and returns the loss trajectory plus a flattened parameter
	// fingerprint. Nil for single-module subjects.
	Steps func(m Mode, steps int) ([]float64, []float32)
}

// modInstance is a freshly-built module with a fixed input and upstream
// gradient, wrapped in closures so module-shaped and attention-shaped
// Forward signatures audit identically.
type modInstance struct {
	forward  func(ctx *nn.Ctx) *tensor.Tensor
	backward func(ctx *nn.Ctx, dY *tensor.Tensor) *tensor.Tensor
	params   []*nn.Param
	x, dY    *tensor.Tensor
}

// moduleSubject adapts a modInstance builder to the Subject interface:
// Run traces out/dx/param grads, GradCheck differences the analytic
// gradients against central differences of the surrogate loss Σ dY·y.
func moduleSubject(name string, hasAttention bool, build func(m Mode) *modInstance) *Subject {
	run := func(m Mode) *Trace {
		inst := build(m)
		ctx := m.ctx()
		y := inst.forward(ctx)
		tr := newTrace()
		tr.add("out", y.Data())
		for _, p := range inst.params {
			p.ZeroGrad()
		}
		dx := inst.backward(ctx, inst.dY)
		tr.add("dx", dx.Data())
		for _, p := range inst.params {
			tr.add("grad:"+p.Name, p.Grad.Data())
		}
		return tr
	}
	check := func(m Mode) []Divergence {
		inst := build(m)
		return gradCheckModule(name, m, inst)
	}
	return &Subject{Name: name, HasAttention: hasAttention, Run: run, GradCheck: check}
}

// fillInput seeds an input activation away from zero so relative
// comparisons are meaningful.
func fillInput(t *tensor.Tensor, seed uint64) {
	t.FillNormal(tensor.NewRNG(seed), 0, 1)
}

func newLinearSubject() *Subject {
	return moduleSubject("linear", false, func(Mode) *modInstance {
		rng := tensor.NewRNG(weightSeed)
		l := nn.NewLinear("audit.lin", linIn, linOut, profile.CatLinear, rng)
		x := tensor.New(linTokens, linIn)
		fillInput(x, dataSeed)
		dY := tensor.New(linTokens, linOut)
		fillInput(dY, dataSeed+1)
		return &modInstance{
			forward:  func(ctx *nn.Ctx) *tensor.Tensor { return l.Forward(ctx, x) },
			backward: func(ctx *nn.Ctx, g *tensor.Tensor) *tensor.Tensor { return l.Backward(ctx, g) },
			params:   l.Params(), x: x, dY: dY,
		}
	})
}

func newFeedForwardSubject() *Subject {
	return moduleSubject("feedforward", false, func(Mode) *modInstance {
		rng := tensor.NewRNG(weightSeed)
		ff := nn.NewFeedForward("audit.ff", ffDModel, ffDFF, rng)
		x := tensor.New(ffTok, ffDModel)
		fillInput(x, dataSeed)
		dY := tensor.New(ffTok, ffDModel)
		fillInput(dY, dataSeed+1)
		return &modInstance{
			forward:  func(ctx *nn.Ctx) *tensor.Tensor { return ff.Forward(ctx, x) },
			backward: func(ctx *nn.Ctx, g *tensor.Tensor) *tensor.Tensor { return ff.Backward(ctx, g) },
			params:   ff.Params(), x: x, dY: dY,
		}
	})
}

func newLayerNormSubject() *Subject {
	s := moduleSubject("layernorm", false, func(Mode) *modInstance {
		ln := nn.NewLayerNorm("audit.ln", lnDim)
		// Non-trivial gamma/beta so their gradients are exercised off
		// the initialization values.
		fillInput(ln.Gamma.Value, weightSeed)
		fillInput(ln.Beta.Value, weightSeed+1)
		x := tensor.New(lnRows, lnDim)
		fillInput(x, dataSeed)
		dY := tensor.New(lnRows, lnDim)
		fillInput(dY, dataSeed+1)
		return &modInstance{
			forward:  func(ctx *nn.Ctx) *tensor.Tensor { return ln.Forward(ctx, x) },
			backward: func(ctx *nn.Ctx, g *tensor.Tensor) *tensor.Tensor { return ln.Backward(ctx, g) },
			params:   ln.Params(), x: x, dY: dY,
		}
	})
	s.NoGEMM = true
	return s
}

// paddingMask builds an additive [b, n] key mask with the last key of
// every sequence padded out, matching the -1e9 convention of data.Batch.
func paddingMask(b, n int) *tensor.Tensor {
	mask := tensor.New(b, n)
	for s := 0; s < b; s++ {
		mask.Set(-1e9, s, n-1)
	}
	return mask
}

func newAttentionSubject() *Subject {
	return moduleSubject("attention", true, func(m Mode) *modInstance {
		rng := tensor.NewRNG(weightSeed)
		a := nn.NewMultiHeadAttention("audit.attn", attnDModel, attnHeads, 0.1, rng)
		a.FusedSoftmax = m.Fused
		mask := paddingMask(attnB, attnN)
		x := tensor.New(attnB*attnN, attnDModel)
		fillInput(x, dataSeed)
		dY := tensor.New(attnB*attnN, attnDModel)
		fillInput(dY, dataSeed+1)
		return &modInstance{
			forward: func(ctx *nn.Ctx) *tensor.Tensor {
				return a.Forward(ctx, x, attnB, attnN, mask)
			},
			backward: func(ctx *nn.Ctx, g *tensor.Tensor) *tensor.Tensor { return a.Backward(ctx, g) },
			params:   a.Params(), x: x, dY: dY,
		}
	})
}

func newEncoderSubject() *Subject {
	return moduleSubject("encoder", true, func(m Mode) *modInstance {
		rng := tensor.NewRNG(weightSeed)
		e := nn.NewEncoderLayer("audit.enc", encDModel, encHeads, encDFF, 0.1, rng)
		e.Attn.FusedSoftmax = m.Fused
		mask := paddingMask(encB, encN)
		x := tensor.New(encB*encN, encDModel)
		fillInput(x, dataSeed)
		dY := tensor.New(encB*encN, encDModel)
		fillInput(dY, dataSeed+1)
		return &modInstance{
			forward: func(ctx *nn.Ctx) *tensor.Tensor {
				return e.Forward(ctx, x, encB, encN, mask)
			},
			backward: func(ctx *nn.Ctx, g *tensor.Tensor) *tensor.Tensor { return e.Backward(ctx, g) },
			params:   e.Params(), x: x, dY: dY,
		}
	})
}

// newEncoderEvalSubject audits the encoder layer in evaluation mode
// (ctx.Train=false, forward only). This is the regime where the fused
// Add&Norm epilogues engage even with a nonzero configured dropout
// probability (the block dropouts are inactive in eval), so it is the
// subject that differences the bias+residual+LayerNorm fused write-back
// against the unfused reference tail across every path of the matrix.
func newEncoderEvalSubject() *Subject {
	s := &Subject{Name: "encoder.eval", HasAttention: true}
	s.Run = func(m Mode) *Trace {
		rng := tensor.NewRNG(weightSeed)
		e := nn.NewEncoderLayer("audit.ence", encDModel, encHeads, encDFF, 0.1, rng)
		e.Attn.FusedSoftmax = m.Fused
		mask := paddingMask(encB, encN)
		x := tensor.New(encB*encN, encDModel)
		fillInput(x, dataSeed)
		ctx := m.ctx()
		ctx.Train = false
		y := e.Forward(ctx, x, encB, encN, mask)
		tr := newTrace()
		tr.add("out", y.Data())
		return tr
	}
	return s
}

func buildStepBERT(m Mode) *model.BERT {
	b, err := model.New(stepConfig(m.Fused), weightSeed)
	if err != nil {
		panic("audit: " + err.Error())
	}
	if m.Ckpt {
		b.CheckpointEvery = 1
	}
	return b
}

func newBERTStepSubject() *Subject {
	s := &Subject{Name: "bert.step", HasAttention: true, HasCkpt: true}
	s.Run = func(m Mode) *Trace {
		bert := buildStepBERT(m)
		batch := data.NewGenerator(stepConfig(false).Vocab, 0.15, dataSeed).Next(stepB, stepN)
		ctx := m.ctx()
		bert.ZeroGrads()
		loss := bert.Step(ctx, batch)
		tr := newTrace()
		tr.Loss, tr.HasLoss = loss, true
		for _, p := range bert.Params() {
			tr.add("grad:"+p.Name, p.Grad.Data())
		}
		return tr
	}
	s.GradCheck = func(m Mode) []Divergence {
		bert := buildStepBERT(m)
		batch := data.NewGenerator(stepConfig(false).Vocab, 0.15, dataSeed).Next(stepB, stepN)
		loss := func() float64 { return bert.Forward(m.ctx(), batch) }
		analytic := func() {
			bert.ZeroGrads()
			bert.Step(m.ctx(), batch)
		}
		return gradCheckLoss("bert.step", m, bert.Params(), loss, analytic)
	}
	s.Steps = func(m Mode, steps int) ([]float64, []float32) {
		bert := buildStepBERT(m)
		gen := data.NewGenerator(stepConfig(false).Vocab, 0.15, dataSeed)
		opt := optim.NewLAMB(0.01)
		ctx := m.ctx()
		params := bert.Params()
		losses := make([]float64, steps)
		for i := range losses {
			bert.ZeroGrads()
			losses[i] = bert.Step(ctx, gen.Next(stepB, stepN))
			opt.Step(ctx, params)
		}
		return losses, fingerprint(params)
	}
	return s
}

func newFineTuneStepSubject() *Subject {
	s := &Subject{Name: "finetune.step", HasAttention: true}
	build := func(m Mode) (*model.FineTuner, *data.QABatch) {
		ft := model.NewFineTuner(buildStepBERT(m), weightSeed+1)
		batch := data.NewGenerator(stepConfig(false).Vocab, 0.15, dataSeed).NextQA(stepB, stepN)
		return ft, batch
	}
	s.Run = func(m Mode) *Trace {
		ft, batch := build(m)
		ctx := m.ctx()
		ft.ZeroGrads()
		loss := ft.Step(ctx, batch)
		tr := newTrace()
		tr.Loss, tr.HasLoss = loss, true
		for _, p := range ft.Params() {
			tr.add("grad:"+p.Name, p.Grad.Data())
		}
		return tr
	}
	s.Steps = func(m Mode, steps int) ([]float64, []float32) {
		ft, _ := build(m)
		gen := data.NewGenerator(stepConfig(false).Vocab, 0.15, dataSeed+1)
		opt := optim.NewLAMB(0.01)
		ctx := m.ctx()
		params := ft.Params()
		losses := make([]float64, steps)
		for i := range losses {
			ft.ZeroGrads()
			losses[i] = ft.Step(ctx, gen.NextQA(stepB, stepN))
			opt.Step(ctx, params)
		}
		return losses, fingerprint(params)
	}
	return s
}

// fingerprint flattens every parameter value into one slice for bitwise
// trajectory comparison.
func fingerprint(params []*nn.Param) []float32 {
	var fp []float32
	for _, p := range params {
		fp = append(fp, p.Value.Data()...)
	}
	return fp
}

// Subjects returns the full audit roster, cheapest first.
func Subjects() []*Subject {
	return []*Subject{
		newLinearSubject(),
		newLayerNormSubject(),
		newFeedForwardSubject(),
		newAttentionSubject(),
		newEncoderSubject(),
		newEncoderEvalSubject(),
		newBERTStepSubject(),
		newFineTuneStepSubject(),
	}
}
