// Command bertchar regenerates the paper's single-device characterization
// artifacts — Table 2b and Figures 3, 4, 6, 7, 8, 9, 12a, 12b, the
// checkpointing study, the NMC study, the Section 7 run-mode comparison,
// and the Table 1 takeaway checks — from the calibrated analytical model.
//
// Usage:
//
//	bertchar [-artifact all|table2b|fig3|...|takeaways]
//	         [-model large|base|megatron|gpt]
//	         [-compute X] [-bandwidth X]
//	bertchar -export json|csv [-phase 1|2] [-b N] [-mp]
//	bertchar -large [-debug-addr HOST:PORT]
//
// The -compute and -bandwidth flags scale the device model to project
// hypothetical accelerator improvements (Section 5.1); -export emits one
// workload's machine-readable breakdown for plotting pipelines (with the
// live runtime-counter snapshot embedded).
//
// The reduced-scale run on the real engine is bertprof's job (bertprof
// -iters N -metrics-jsonl FILE streams the per-step telemetry). -large
// executes one honest BERT-Large iteration here (see large.go); it runs
// for minutes, so -debug-addr serves the runtime counters (pack-cache hit
// rate, worker-pool dispatch/steal counts, spill traffic) as Prometheus
// text plus expvar and pprof while it does.
//
// The cross-path numerics audit is a test suite: go test ./internal/audit/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"demystbert"
	"demystbert/internal/obs"
	"demystbert/internal/report"
	"demystbert/internal/runutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bertchar", flag.ContinueOnError)
	fs.SetOutput(stderr)
	artifact := fs.String("artifact", "all", "artifact to render, or 'all'")
	modelName := fs.String("model", "large", "model config: large, base, megatron, or gpt")
	computeX := fs.Float64("compute", 1, "scale device compute throughput")
	bwX := fs.Float64("bandwidth", 1, "scale device memory bandwidth")
	export := fs.String("export", "", "export one workload's breakdown as 'json' or 'csv' instead of rendering artifacts")
	phase := fs.Int("phase", 1, "pre-training phase for -export (1: n=128, 2: n=512)")
	batch := fs.Int("b", 32, "mini-batch size for -export")
	mp := fs.Bool("mp", false, "mixed precision for -export")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address")
	large := fs.Bool("large", false, "execute one honest memory-scaled BERT-Large training iteration for real and report the per-category breakdown")
	var lf largeFlags
	fs.IntVar(&lf.layers, "large-layers", 0, "with -large: override the layer count (0 = the full 24; reduced values are the CI smoke)")
	fs.IntVar(&lf.b, "large-b", 8, "with -large: global batch size, reached via accumulation")
	fs.IntVar(&lf.accum, "accum", 8, "with -large: accumulation micro-steps (micro-batch = large-b/accum)")
	fs.IntVar(&lf.seq, "large-seq", 128, "with -large: sequence length (128 = pre-training phase 1)")
	fs.IntVar(&lf.shards, "shards", 8, "with -large: virtual optimizer-state shards (1 = unsharded)")
	fs.IntVar(&lf.ckptEvery, "ckpt-every", 6, "with -large: activation-checkpoint segment length in layers")
	fs.IntVar(&lf.memlimitMB, "memlimit-mb", 5120, "with -large: GOMEMLIMIT in MiB (0 = unlimited)")
	fs.StringVar(&lf.spillDir, "spill-dir", "", "with -large: directory for the spill arena (default: system temp)")
	fs.StringVar(&lf.jsonOut, "breakdown-json", "", "with -large: write the measured-vs-modeled breakdown JSON here")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// One LIFO cleanup list shared by normal return and SIGINT/SIGTERM,
	// so an interrupt drains the debug server.
	sd := runutil.Install(stderr)
	defer sd.Drain()

	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, obs.Default)
		if err != nil {
			fmt.Fprintf(stderr, "bertchar: %v\n", err)
			return 2
		}
		sd.Defer("debug server", func() { srv.ShutdownTimeout(2 * time.Second) })
		fmt.Fprintf(stdout, "debug server: http://%s/metrics\n", srv.Addr)
	}

	var cfg demystbert.Config
	switch *modelName {
	case "large":
		cfg = demystbert.BERTLarge()
	case "base":
		cfg = demystbert.BERTBase()
	case "megatron":
		cfg = demystbert.MegatronBERT()
	case "gpt":
		cfg = demystbert.GPTMedium()
	default:
		fmt.Fprintf(stderr, "bertchar: unknown model %q\n", *modelName)
		return 2
	}

	dev := demystbert.MI100()
	if *computeX != 1 || *bwX != 1 {
		dev = dev.Scale(*computeX, *bwX, 1)
		fmt.Fprintf(stdout, "device: %s (compute x%.2f, bandwidth x%.2f)\n", dev.Name, *computeX, *bwX)
	}

	if *large {
		if err := runLarge(stdout, &lf, dev); err != nil {
			fmt.Fprintf(stderr, "bertchar: %v\n", err)
			return 2
		}
		return 0
	}

	if *export != "" {
		prec := demystbert.FP32
		if *mp {
			prec = demystbert.Mixed
		}
		w := demystbert.Phase1(cfg, *batch, prec)
		if *phase == 2 {
			w = demystbert.Phase2(cfg, *batch, prec)
		}
		r := demystbert.Characterize(w, dev)
		var err error
		switch *export {
		case "json":
			err = report.WriteJSONExport(stdout, report.ExportWithRuntime(r, obs.Default.Snapshot()))
		case "csv":
			err = report.WriteCSV(stdout, r)
		default:
			err = fmt.Errorf("unknown export format %q (json|csv)", *export)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bertchar: %v\n", err)
			return 2
		}
		return 0
	}

	artifacts := demystbert.Artifacts()
	if *artifact != "all" {
		artifacts = []string{*artifact}
	}
	for _, a := range artifacts {
		if err := demystbert.WriteArtifact(stdout, a, cfg, dev); err != nil {
			fmt.Fprintf(stderr, "bertchar: %v\n", err)
			return 2
		}
	}
	return 0
}
