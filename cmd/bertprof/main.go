// Command bertprof runs real BERT iterations on the pure-Go engine and
// prints a rocProf-style kernel profile: per-category kernel counts,
// wall-clock time, FLOPs, bytes, arithmetic intensity, and runtime shares
// — the reduced-scale counterpart of the paper's Section 3 measurements —
// with the calibrated analytical model's share for the same workload on
// the MI100 beside each measured one. It is the one binary that trains
// for real on one machine; bertchar only models.
//
// Usage:
//
//	bertprof [-layers N] [-dmodel D] [-heads H] [-dff F] [-vocab V]
//	         [-b B] [-n SEQ] [-iters I] [-mp] [-checkpoint K]
//	         [-causal] [-mode pretrain|finetune]
//	         [-accum A] [-shards S] [-spill-dir DIR]
//	         [-trace FILE] [-seed S]
//	         [-metrics-jsonl FILE] [-debug-addr HOST:PORT]
//
// -accum, -shards and -spill-dir are internal/memscale's knobs, which run
// a model larger than memory: -accum splits every -b batch into that many
// micro-batches (BERT.StepAccum, bitwise the full-batch step), -shards
// keeps one of that many slices of LAMB's m and v resident, and
// -spill-dir holds the arena the checkpoint inputs and the other shards
// go to. Go's own GOMEMLIMIT caps the heap. BERT-Large is the shape flags:
//
//	GOMEMLIMIT=5120MiB bertprof -layers 24 -dmodel 1024 -heads 16 -dff 4096 \
//	    -vocab 30522 -n 128 -b 8 -accum 8 -shards 8 -checkpoint 6 \
//	    -spill-dir /tmp -iters 1
//
// Every run closes with its peak RSS beside the capacity model's resident
// footprint for the same memory plan, and a spilling run with its arena
// traffic.
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
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/device"
	"demystbert/internal/kernels"
	"demystbert/internal/memscale"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/obs"
	"demystbert/internal/opgraph"
	"demystbert/internal/optim"
	"demystbert/internal/perfmodel"
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
	accum := fs.Int("accum", 1, "run each -b batch as this many micro-batches, gradients accumulated (pretrain; must divide -b)")
	shards := fs.Int("shards", 1, "virtual optimizer-state shards: one shard's LAMB m and v resident at a time (> 1 needs -spill-dir)")
	spillDir := fs.String("spill-dir", "", "directory of the spill arena for checkpoint inputs and optimizer shards (empty: no spill)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the step/phase/kernel timeline to this path")
	seed := fs.Uint64("seed", 42, "deterministic seed")
	metricsPath := fs.String("metrics-jsonl", "", "write one JSON telemetry record per training step to this path")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	refuse := ""
	switch {
	case *mode != "pretrain" && *mode != "finetune":
		refuse = fmt.Sprintf("unknown mode %q (pretrain|finetune)", *mode)
	case *accum < 1 || *b%*accum != 0:
		refuse = fmt.Sprintf("-accum %d must divide -b %d", *accum, *b)
	case *accum > 1 && *mode == "finetune":
		refuse = "-accum > 1 needs -mode pretrain: fine-tuning has no accumulated step"
	case *shards < 1:
		refuse = fmt.Sprintf("-shards must be >= 1, got %d", *shards)
	case *shards > 1 && *spillDir == "":
		refuse = fmt.Sprintf("-shards %d needs -spill-dir: unspilled shards are plain LAMB and save nothing", *shards)
	}
	if refuse != "" {
		fmt.Fprintf(stderr, "bertprof: %s\n", refuse)
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
		em := obs.NewStepEmitter(f) // a CPU step has no MI100 roofline
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
	spill := "off"
	if *spillDir != "" {
		spill = *spillDir
	}
	fmt.Fprintf(stdout, "workload: B=%d n=%d (%d tokens/iteration), mixed-precision=%v, checkpoint=%d, causal=%v, accum=%d, shards=%d, spill=%s\n",
		*b, *n, *b**n, *mp, *checkpoint, *causal, *accum, *shards, spill)
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

	// iterate runs one forward and backward pass on a fresh batch and
	// returns its loss and the MLM rows it scored.
	var (
		params  []*nn.Param
		zero    func()
		iterate func() (float64, int)
	)
	w := opgraph.Workload{Cfg: cfg, B: *b, SeqLen: *n, CheckpointEvery: *checkpoint}
	if *mp {
		w.Precision = opgraph.Mixed
	}
	if *mode == "pretrain" {
		params, zero = m.Params(), m.ZeroGrads
		iterate = func() (float64, int) {
			batch := gen.Next(*b, *n)
			return m.StepAccum(ctx, batch, *accum), batch.MaskedCount()
		}
	} else {
		f := model.NewFineTuner(m, *seed+3)
		params, zero = f.Params(), f.ZeroGrads
		iterate = func() (float64, int) { return f.Step(ctx, gen.NextQA(*b, *n)), 0 }
		w.Mode = opgraph.FineTuning
	}

	opt := optim.NewLAMB(0.01)
	update := func() error { opt.Step(ctx, params); return nil }
	if *spillDir != "" {
		arena, err := memscale.NewArena(*spillDir)
		if err != nil {
			fmt.Fprintf(stderr, "bertprof: %v\n", err)
			return 2
		}
		sd.Defer("spill arena", func() { arena.Close() })
		m.CkptSpill = memscale.NewActSpill(arena)
		if *shards > 1 {
			sh, err := memscale.NewSharded(opt, params, *shards)
			if err != nil {
				fmt.Fprintf(stderr, "bertprof: %v\n", err)
				return 2
			}
			sh.SetArena(arena)
			update = func() error { return sh.Step(ctx, params) }
		}
	}
	scaler := optim.NewDynamicLossScaler()

	// step runs one full iteration; i >= 1 marks a measured step whose
	// telemetry (loss, tokens/s, per-category achieved rates over the
	// step's own event suffix) goes to the JSONL emitter. With -trace the
	// iteration is one trace: a "step" root, the fwd/bwd spans iterate
	// emits under it, and an "upd" span around the optimizer.
	step := func(i int) (loss float64, rows int, err error) {
		evBase := ctx.Prof.KernelCount()
		start := time.Now()
		ctx.Tracer.SetStep(i)
		_, sc := ctx.Tracer.NewTrace()
		root := ctx.Tracer.StartSpan(sc, "step")
		ctx.Span = root.Context()
		if *mp {
			scaler.Arm(ctx)
		}
		loss, rows = iterate()
		upd := ctx.StartSpan("upd")
		if !*mp || scaler.UnscaleAndCheck(params) {
			err = update()
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
		return loss, rows, err
	}

	// Warm-up iteration, as the paper does before profiling.
	if _, _, err := step(0); err != nil {
		fmt.Fprintf(stderr, "bertprof: %v\n", err)
		return 1
	}
	ctx.Prof.Reset()
	ctx.Tracer.Reset()
	spillW, spillR, spillStall := memscale.SpillCounters()
	swaps := shardSwaps()

	scored := 0
	for i := 0; i < *iters; i++ {
		loss, rows, err := step(i + 1)
		if err != nil {
			fmt.Fprintf(stderr, "bertprof: %v\n", err)
			return 1
		}
		scored += rows
		if *mode == "pretrain" {
			fmt.Fprintf(stdout, "iteration %d: loss %.4f (%d masked tokens)\n", i+1, loss, rows)
		} else {
			fmt.Fprintf(stdout, "iteration %d: span loss %.4f\n", i+1, loss)
		}
	}

	// The model prices the head the engine runs: over the scored rows of
	// an average measured batch (opgraph reads 0 as all B·n of them).
	if *mode == "pretrain" {
		w.MLMRows = max(1, (scored+*iters/2)/max(1, *iters))
	}
	dev := device.MI100()
	r := perfmodel.Run(opgraph.Build(w), dev)
	modeled := make(map[profile.Category]float64)
	for c, d := range r.ByCategory() {
		modeled[c] = float64(d) / float64(r.Total)
	}

	fmt.Fprintln(stdout)
	sum := ctx.Prof.Summarize()
	sum.WriteReport(stdout, fmt.Sprintf("kernel profile (%d iterations)", *iters), modeled)
	fmt.Fprintf(stdout, "modeled: this workload on %s (%s)", dev.Name, w.Precision)
	if *mode == "pretrain" {
		fmt.Fprintf(stdout, ", MLM head over %d scored rows", w.MLMRows)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "\nGEMM share of wall time: %.1f%%\n", 100*sum.GEMMShare())
	if *mp && scaler.Skipped > 0 {
		fmt.Fprintf(stdout, "loss scaler skipped %d step(s); scale now %.0f\n", scaler.Skipped, scaler.Scale)
	}

	if *spillDir != "" {
		wr, rd, stall := memscale.SpillCounters()
		fmt.Fprintf(stdout, "spill: wrote %d B, read %d B, stall %v, %d shard swaps (measured iterations)\n",
			wr-spillW, rd-spillR, (stall - spillStall).Round(time.Microsecond), shardSwaps()-swaps)
	}
	// The capacity model's resident footprint for this memory plan. RSS
	// also carries the Go runtime, the GEMM pack caches and the
	// collector's headroom, so the ratio is reported, not asserted.
	full := opgraph.Footprint(w)
	scaled := opgraph.ScaledFootprint(w, opgraph.MemScale{
		MicroB: *b / *accum, Shards: *shards, SpillCkpts: *spillDir != "",
	})
	rss := peakRSSBytes()
	limit := "unset"
	if l := debug.SetMemoryLimit(-1); l != math.MaxInt64 {
		limit = fmt.Sprintf("%.0f MiB", mib(l))
	}
	fmt.Fprintf(stdout, "peak RSS %.0f MiB vs modeled resident %.0f MiB (x%.2f); unscaled model %.0f MiB; GOMEMLIMIT %s\n",
		mib(rss), mib(scaled.Total()), float64(rss)/float64(scaled.Total()), mib(full.Total()), limit)
	// The workspace holds every activation and activation gradient a whole
	// step draws, forward and backward, where the model counts only what
	// the forward keeps for the backward: it is the larger by design.
	ws := int64(ctx.WorkspaceBytes())
	fmt.Fprintf(stdout, "step workspace %.1f MiB measured (forward and backward draws) vs modeled retained activations %.1f MiB (x%.2f)\n",
		mib(ws), mib(scaled.Activations), float64(ws)/float64(scaled.Activations))

	if err := writeTrace(); err != nil {
		return 2
	}
	return 0
}

// shardSwaps reads the virtual-shard residency swaps counter.
func shardSwaps() int64 {
	c, _ := obs.Default.Find("memscale_shard_swaps_total")
	return int64(c.Value)
}

// peakRSSBytes reads the process's high-water resident set from the
// kernel (VmHWM), falling back to the Go runtime's OS-reserved total
// where /proc is unavailable.
func peakRSSBytes() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) >= 1 {
					if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
						return kb << 10
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
