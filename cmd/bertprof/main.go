// Command bertprof runs real BERT iterations on the pure-Go engine and
// prints a rocProf-style kernel profile: per-category kernel counts,
// wall-clock time, FLOPs, bytes, arithmetic intensity, and runtime shares
// — the reduced-scale counterpart of the paper's Section 3 measurements.
//
// Usage:
//
//	bertprof [-layers N] [-dmodel D] [-heads H] [-dff F] [-vocab V]
//	         [-b B] [-n SEQ] [-iters I] [-mp] [-checkpoint K]
//	         [-causal] [-mode pretrain|finetune]
//	         [-trace FILE] [-seed S]
//	         [-metrics-jsonl FILE] [-debug-addr HOST:PORT]
//
// -metrics-jsonl streams one JSON record per training step (loss,
// tokens/s, per-category achieved GFLOP/s and GB/s; no peak fractions,
// since no device model of this host applies); -debug-addr serves live
// Prometheus-text runtime counters, expvar, and pprof while the run is
// in flight. -trace writes the measured iterations as a Chrome/Perfetto
// timeline through the repo's one exporter (trace.WriteChromeTrace): a
// step span per iteration, its fwd/bwd/upd phase spans inside it, and
// the kernel slices on a companion track.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/obs"
	"demystbert/internal/optim"
	"demystbert/internal/profile"
	"demystbert/internal/runutil"
	"demystbert/internal/tensor"
	"demystbert/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bertprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	layers := fs.Int("layers", 2, "Transformer layer count (N)")
	dmodel := fs.Int("dmodel", 64, "hidden dimension (d_model)")
	heads := fs.Int("heads", 4, "attention heads (h)")
	dff := fs.Int("dff", 256, "intermediate dimension (d_ff)")
	vocab := fs.Int("vocab", 1000, "vocabulary size")
	b := fs.Int("b", 4, "mini-batch size (B)")
	n := fs.Int("n", 32, "sequence length (n)")
	iters := fs.Int("iters", 2, "training iterations to profile")
	mp := fs.Bool("mp", false, "mixed precision: FP16 activation storage + loss scaling")
	checkpoint := fs.Int("checkpoint", 0, "activation checkpointing segment length (0 = off)")
	causal := fs.Bool("causal", false, "decoder-style (causal) attention")
	mode := fs.String("mode", "pretrain", "pretrain or finetune")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the step/phase/kernel timeline to this path")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	metricsPath := fs.String("metrics-jsonl", "", "write one JSON telemetry record per training step to this path")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Ctrl-C used to truncate the metrics JSONL and Chrome trace
	// mid-write; every exit path (normal return or SIGINT/SIGTERM) now
	// funnels through one LIFO cleanup list.
	sd := runutil.Install(stderr)
	defer sd.Drain()

	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, obs.Default)
		if err != nil {
			fmt.Fprintf(stderr, "bertprof: %v\n", err)
			return 2
		}
		sd.Defer("debug server", func() { srv.ShutdownTimeout(2 * time.Second) })
		fmt.Fprintf(stdout, "debug server: http://%s/metrics\n", srv.Addr)
	}
	var emitter *obs.StepEmitter
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(stderr, "bertprof: %v\n", err)
			return 2
		}
		em := obs.NewStepEmitter(f, obs.Peaks{}) // a CPU step has no MI100 roofline
		sd.Defer("metrics jsonl", func() {
			if err := em.EmitFinal(obs.Default); err != nil {
				fmt.Fprintf(stderr, "bertprof: metrics final: %v\n", err)
			}
			f.Close()
		})
		emitter = em
	}

	cfg := model.Config{
		Vocab:     *vocab,
		MaxPos:    *n,
		NumLayers: *layers,
		DModel:    *dmodel,
		Heads:     *heads,
		DFF:       *dff,
		DropProb:  0.1,
		Causal:    *causal,
	}
	m, err := model.New(cfg, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "bertprof: %v\n", err)
		return 2
	}
	m.CheckpointEvery = *checkpoint

	fmt.Fprintf(stdout, "BERT N=%d d_model=%d h=%d d_ff=%d vocab=%d: %d parameters\n",
		cfg.NumLayers, cfg.DModel, cfg.Heads, cfg.DFF, cfg.Vocab, m.NumParams())
	fmt.Fprintf(stdout, "workload: B=%d n=%d (%d tokens/iteration), mixed-precision=%v, checkpoint=%d, causal=%v\n",
		*b, *n, *b**n, *mp, *checkpoint, *causal)
	fmt.Fprintf(stdout, "gemm kernel: %s\n\n", kernels.ActiveKernel())

	gen := data.NewGenerator(cfg.Vocab, 0.15, *seed+1)
	ctx := &nn.Ctx{Prof: profile.New(), RNG: tensor.NewRNG(*seed + 2), Train: true, MixedPrecision: *mp}

	// The Chrome trace is written through one idempotent closure shared
	// by the normal exit path and the signal handler, so an interrupted
	// run leaves a loadable (partial) trace instead of nothing.
	writeTrace := func() error { return nil }
	if *tracePath != "" {
		ctx.Tracer = trace.New(0, 0)
		traceDone := false
		writeTrace = func() error {
			if traceDone {
				return nil
			}
			traceDone = true
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintf(stderr, "bertprof: %v\n", err)
				return err
			}
			defer f.Close()
			if err := trace.WriteChromeTrace(f, ctx.Tracer.Spans(), ctx.Prof.Events()); err != nil {
				fmt.Fprintf(stderr, "bertprof: writing trace: %v\n", err)
				return err
			}
			fmt.Fprintf(stdout, "Chrome trace written to %s (open in chrome://tracing or Perfetto)\n", *tracePath)
			return nil
		}
		sd.Defer("chrome trace", func() { writeTrace() })
	}
	opt := optim.NewLAMB(0.01)
	scaler := optim.NewDynamicLossScaler()

	// step runs one full iteration; i >= 1 marks a measured step whose
	// telemetry (loss, tokens/s, per-category achieved rates over the
	// step's own event suffix) goes to the JSONL emitter. With -trace the
	// iteration is one trace: a "step" root, the fwd/bwd spans stepFn
	// emits under it, and an "upd" span around the optimizer.
	step := func(i int, stepFn func() float64, params []*nn.Param, zero func()) float64 {
		evBase := ctx.Prof.KernelCount()
		start := time.Now()
		ctx.Tracer.SetStep(i)
		_, sc := ctx.Tracer.NewTrace()
		root := ctx.Tracer.StartSpan(sc, "step")
		ctx.Span = root.Context()
		if *mp {
			scaler.Arm(ctx)
		}
		loss := stepFn()
		upd := ctx.StartSpan("upd")
		if !*mp || scaler.UnscaleAndCheck(params) {
			opt.Step(ctx, params)
		}
		zero()
		upd.End()
		root.End()
		if emitter != nil && i >= 1 {
			sum := profile.Summarize(ctx.Prof.Events()[evBase:])
			if err := emitter.EmitStep(i, loss, *b**n, time.Since(start), sum); err != nil {
				fmt.Fprintf(stderr, "bertprof: metrics emit: %v\n", err)
			}
		}
		return loss
	}

	switch *mode {
	case "pretrain":
		// Warm-up iteration, as the paper does before profiling.
		warm := gen.Next(*b, *n)
		step(0, func() float64 { return m.Step(ctx, warm) }, m.Params(), m.ZeroGrads)
		ctx.Prof.Reset()
		ctx.Tracer.Reset()

		for i := 0; i < *iters; i++ {
			batch := gen.Next(*b, *n)
			loss := step(i+1, func() float64 { return m.Step(ctx, batch) }, m.Params(), m.ZeroGrads)
			fmt.Fprintf(stdout, "iteration %d: loss %.4f (%d masked tokens)\n", i+1, loss, batch.MaskedCount())
		}
	case "finetune":
		f := model.NewFineTuner(m, *seed+3)
		warm := gen.NextQA(*b, *n)
		step(0, func() float64 { return f.Step(ctx, warm) }, f.Params(), f.ZeroGrads)
		ctx.Prof.Reset()
		ctx.Tracer.Reset()

		for i := 0; i < *iters; i++ {
			batch := gen.NextQA(*b, *n)
			loss := step(i+1, func() float64 { return f.Step(ctx, batch) }, f.Params(), f.ZeroGrads)
			fmt.Fprintf(stdout, "iteration %d: span loss %.4f\n", i+1, loss)
		}
	default:
		fmt.Fprintf(stderr, "bertprof: unknown mode %q (pretrain|finetune)\n", *mode)
		return 2
	}

	fmt.Fprintln(stdout)
	sum := ctx.Prof.Summarize()
	sum.WriteReport(stdout, fmt.Sprintf("kernel profile (%d iterations)", *iters))
	fmt.Fprintf(stdout, "\nGEMM share of wall time: %.1f%%\n", 100*sum.GEMMShare())
	if *mp && scaler.Skipped > 0 {
		fmt.Fprintf(stdout, "loss scaler skipped %d step(s); scale now %.0f\n", scaler.Skipped, scaler.Scale)
	}

	if err := writeTrace(); err != nil {
		return 2
	}
	return 0
}
