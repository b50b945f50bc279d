// Command bertchar is the front end of the calibrated analytical model: it
// regenerates the paper's characterization artifacts — Table 2b and
// Figures 3, 4, 6, 7, 8, 9, 11, 12a, 12b, the checkpointing study, the
// NMC study, the Section 7 run-mode comparison, and the Table 1 takeaway
// checks — sweeps one hyperparameter of a workload (Section 3.3), profiles
// custom data-parallel and tensor-sliced setups (Sections 5, 6.2.3), and
// exports a workload's modeled breakdown.
//
// Usage:
//
//	bertchar [-artifact all|table2b|fig3|...|takeaways]
//	         [-model large|base|megatron|gpt]
//	         [-compute X] [-bandwidth X] [-link X]
//	bertchar -sweep layers|batch|seqlen [-values V1,V2,...] [-b N] [-mp]
//	bertchar -dp D [-zero] [-no-overlap] [-b N] [-mp]
//	bertchar -ts M [-in-network] [-b N] [-mp]
//	bertchar -export json|csv [-phase 1|2] [-b N] [-mp] [-sweep ...]
//
// -model, -phase, -b and -mp define the workload that -sweep, -dp, -ts
// and -export act on. The -compute, -bandwidth and -link flags scale the
// device model to project hypothetical accelerator and interconnect
// improvements (Section 5.1); they apply to every mode. -export writes
// the modeled breakdown in the per-step record schema bertprof writes for
// measured steps (obs.StepRecord): one record for the workload, or one
// per -sweep point, as JSON lines closed by the runtime-counter snapshot,
// or as CSV category rows.
//
// bertchar models, and every mode returns in milliseconds. bertprof
// measures: it runs real training on one machine, BERT-Large under
// memory scaling included, and prints this model's shares beside its
// measured ones. bertdist distributes real training over processes, and
// bertserve serves. The cross-path numerics audit is a test suite:
// go test ./internal/audit/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"demystbert"
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
	linkX := fs.Float64("link", 1, "scale device interconnect bandwidth")
	phase := fs.Int("phase", 1, "pre-training phase of the workload (1: n=128, 2: n=512)")
	batch := fs.Int("b", 32, "per-device mini-batch size of the workload")
	mp := fs.Bool("mp", false, "mixed-precision workload")
	var mf modeFlags
	fs.StringVar(&mf.export, "export", "", "write the workload's modeled breakdown (one record per -sweep point with -sweep) as 'json' lines or 'csv' instead of rendering")
	fs.StringVar(&mf.sweep, "sweep", "", "sweep one hyperparameter of the workload: layers, batch, or seqlen")
	fs.StringVar(&mf.values, "values", "", "comma-separated -sweep points (default: a per-sweep set)")
	fs.IntVar(&mf.dp, "dp", 0, "profile D-way data parallelism of the workload (0 = off)")
	fs.BoolVar(&mf.zero, "zero", false, "with -dp: ZeRO-style reduced-gradient data parallelism")
	fs.BoolVar(&mf.noOverlap, "no-overlap", false, "with -dp: no compute/communication overlap")
	fs.IntVar(&mf.ts, "ts", 0, "profile m-way tensor slicing of the workload (0 = off)")
	fs.BoolVar(&mf.inNetwork, "in-network", false, "with -ts: in-network AllReduce (Section 6.2.3)")
	if err := fs.Parse(args); err != nil {
		return 2
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
	if *computeX != 1 || *bwX != 1 || *linkX != 1 {
		dev = dev.Scale(*computeX, *bwX, *linkX)
		fmt.Fprintf(stdout, "device: %s (compute x%.2f, bandwidth x%.2f, link x%.2f)\n", dev.Name, *computeX, *bwX, *linkX)
	}

	if mf.active() {
		prec := demystbert.FP32
		if *mp {
			prec = demystbert.Mixed
		}
		w := demystbert.Phase1(cfg, *batch, prec)
		if *phase == 2 {
			w = demystbert.Phase2(cfg, *batch, prec)
		}
		if err := mf.run(stdout, w, dev); err != nil {
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
