// Command bertdist renders Figure 11's multi-device iteration breakdowns
// and supports custom data-parallel (including ZeRO-style) and
// tensor-slicing (including in-network AllReduce) configurations, plus
// hypothetical interconnect improvements (Sections 5, 6.2.3).
//
// Usage:
//
//	bertdist                       # the paper's five Fig. 11 bars
//	bertdist -dp 64 -b 32          # custom data-parallel profile
//	bertdist -dp 128 -zero         # ZeRO-style reduced-gradient DP
//	bertdist -ts 4 -b 32           # custom tensor-slicing profile
//	bertdist -ts 8 -in-network     # switch-resident AllReduce
//	bertdist -link 4               # 4x faster interconnect projection
//
// Beyond the analytical model, bertdist also runs *real* multi-process
// data-parallel training over loopback TCP (internal/distnet):
//
//	bertdist -launch 2 -steps 6            # fork 2 worker processes
//	bertdist -rank 0 -world 2 -addr H:P    # one worker, manual rendezvous
//
// -metrics-jsonl writes the modeled single-device iteration as one
// telemetry record in the shared per-step JSONL schema (analytical modes
// only: it is refused with -world/-launch); -debug-addr serves the
// runtime counter registry (the distnet_* counters of a -world rank
// included), expvar, and pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"demystbert"
	"demystbert/internal/dist"
	"demystbert/internal/obs"
	"demystbert/internal/opgraph"
	"demystbert/internal/perfmodel"
	"demystbert/internal/report"
	"demystbert/internal/runutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bertdist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dp := fs.Int("dp", 0, "model D-way data parallelism (0 = off)")
	ts := fs.Int("ts", 0, "model m-way tensor slicing (0 = off)")
	b := fs.Int("b", 16, "per-device mini-batch size")
	mp := fs.Bool("mp", false, "mixed precision")
	linkX := fs.Float64("link", 1, "scale interconnect bandwidth")
	noOverlap := fs.Bool("no-overlap", false, "disable DP compute/comm overlap")
	zero := fs.Bool("zero", false, "with -dp: model ZeRO-style reduced-gradient DP")
	inNetwork := fs.Bool("in-network", false, "with -ts: model in-network AllReduce (Section 6.2.3)")
	metricsPath := fs.String("metrics-jsonl", "", "write the modeled per-device iteration as one JSON telemetry record to this path")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address")
	var tf trainFlags
	tf.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tf.noOverlap = *noOverlap
	// Real multi-process training (internal/distnet, see distrun.go);
	// everything else is the analytical model.
	distributed := tf.launch > 0 || tf.world > 0
	if distributed && *metricsPath != "" {
		fmt.Fprintln(stderr, "bertdist: -metrics-jsonl records the modeled iteration; it cannot be combined with -world/-launch")
		return 2
	}

	// Signal-safe cleanup: SIGINT/SIGTERM flushes the metrics file and
	// drains the debug server instead of truncating mid-write.
	sd := runutil.Install(stderr)
	defer sd.Drain()

	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, obs.Default)
		if err != nil {
			fmt.Fprintf(stderr, "bertdist: %v\n", err)
			return 2
		}
		sd.Defer("debug server", func() { srv.ShutdownTimeout(2 * time.Second) })
		fmt.Fprintf(stdout, "debug server: http://%s/metrics\n", srv.Addr)
	}

	if distributed {
		if tf.launch > 0 {
			return launchLocal(&tf, stdout, stderr, sd)
		}
		return trainWorker(&tf, stdout, stderr, sd)
	}

	cfg := demystbert.BERTLarge()
	dev := demystbert.MI100().Scale(1, 1, *linkX)
	prec := demystbert.FP32
	if *mp {
		prec = demystbert.Mixed
	}
	w := demystbert.Phase1(cfg, *b, prec)

	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(stderr, "bertdist: %v\n", err)
			return 2
		}
		em := obs.NewStepEmitter(f, dev.Peaks())
		sd.Defer("metrics jsonl", func() {
			if err := em.EmitFinal(obs.Default); err != nil {
				fmt.Fprintf(stderr, "bertdist: metrics final: %v\n", err)
			}
			f.Close()
		})
		r := perfmodel.Run(opgraph.Build(w), dev)
		rec := report.StepRecordFromResult(1, r)
		if err := em.Emit(rec); err != nil {
			fmt.Fprintf(stderr, "bertdist: metrics emit: %v\n", err)
			return 2
		}
	}

	if *dp == 0 && *ts == 0 {
		report.Fig11(stdout, cfg, dev)
		return 0
	}

	print := func(p dist.Profile) {
		fmt.Fprintf(stdout, "%s (devices=%d): total %v\n", p.Name, p.Devices, p.Total.Round(time.Millisecond))
		for _, c := range []opgraph.LayerClass{
			opgraph.ClassTransformer, opgraph.ClassOutput,
			opgraph.ClassEmbedding, opgraph.ClassLAMB,
		} {
			fmt.Fprintf(stdout, "  %-14s %6.1f%%\n", c, 100*p.Share(c))
		}
		fmt.Fprintf(stdout, "  %-14s %6.1f%%", "Comm", 100*p.CommShare())
		if p.HiddenComm > 0 {
			fmt.Fprintf(stdout, " (+%v overlapped)", p.HiddenComm.Round(time.Millisecond))
		}
		fmt.Fprintln(stdout)
	}

	if *dp > 0 {
		r := perfmodel.Run(opgraph.Build(w), dev)
		if *zero {
			print(dist.ZeRO(fmt.Sprintf("ZeRO-%d B=%d", *dp, *b), r, *dp, dev))
		} else {
			print(dist.DataParallel(fmt.Sprintf("DP-%d B=%d", *dp, *b), r, *dp, !*noOverlap))
		}
	}
	if *ts > 0 {
		if *inNetwork {
			print(dist.TensorSlicingInNetwork(fmt.Sprintf("TS-%d-way B=%d (in-network)", *ts, *b), w, *ts, dev))
		} else {
			print(dist.TensorSlicing(fmt.Sprintf("TS-%d-way B=%d", *ts, *b), w, *ts, dev))
		}
	}
	return 0
}
