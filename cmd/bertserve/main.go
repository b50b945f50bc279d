// Command bertserve runs the frozen-weight inference engine behind an
// HTTP front-end with continuous batching of padding-free (ragged)
// batches behind one FIFO — the serving-side counterpart of bertprof's
// training characterization. It has two modes:
//
// Server (default): build the model, pre-pack every weight, and serve
// POST /v1/mlm (plus /healthz, /metrics, /debug/pprof) until
// SIGINT/SIGTERM, which drains gracefully: HTTP stops accepting, in-flight
// requests finish, every admitted request is answered.
//
//	bertserve -addr :8080 [-layers N] [-dmodel D] [-heads H] [-dff F]
//	          [-vocab V] [-maxpos P] [-max-batch 32]
//	          [-queue-cap 4096]
//
// Load generator: drive an already-running server (or error out) with
// deterministic synthetic traffic on an open-loop clock and print the
// measured latency distribution.
//
//	bertserve -loadgen -target http://host:8080 -rate 1000 -duration 10s
//
// The measured latency/throughput numbers of the engine itself come from
// the repo benchmark (go run ./bench -workload serve_sat).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"demystbert/internal/kernels"
	"demystbert/internal/model"
	"demystbert/internal/runutil"
	"demystbert/internal/serve"
	"demystbert/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bertserve", flag.ContinueOnError)
	fs.SetOutput(stderr)

	// Model geometry (defaults are the reduced-scale config every other
	// binary uses; MaxPos is the longest request the server admits).
	layers := fs.Int("layers", 2, "Transformer layer count (N)")
	dmodel := fs.Int("dmodel", 64, "hidden dimension (d_model)")
	heads := fs.Int("heads", 4, "attention heads (h)")
	dff := fs.Int("dff", 256, "intermediate dimension (d_ff)")
	vocab := fs.Int("vocab", 1000, "vocabulary size")
	maxpos := fs.Int("maxpos", 64, "maximum sequence length (position table size)")
	seed := fs.Uint64("seed", 42, "deterministic weight seed")

	// Scheduler policy.
	addr := fs.String("addr", "localhost:8080", "serve address (\":0\" picks a free port)")
	maxBatch := fs.Int("max-batch", 32, "max requests per dynamic batch")
	queueCap := fs.Int("queue-cap", 4096, "admission queue capacity")

	// Request tracing.
	traceSample := fs.Int("trace-sample", 0, "trace 1 in N requests (0 = tracing off; client X-Trace-Id headers are always honored when on)")
	traceOut := fs.String("trace-out", "", "write the span+kernel Perfetto timeline here on shutdown (requires -trace-sample)")

	// Load generator.
	loadgen := fs.Bool("loadgen", false, "run as load generator against -target instead of serving")
	target := fs.String("target", "", "server URL for -loadgen (e.g. http://localhost:8080)")
	rate := fs.Float64("rate", 1000, "offered load, requests/second")
	duration := fs.Duration("duration", 5*time.Second, "load duration per measurement")
	minLen := fs.Int("min-len", 5, "minimum synthetic request length")
	maxLen := fs.Int("max-len", 16, "maximum synthetic request length")
	maskFrac := fs.Float64("mask-frac", 0.15, "fraction of positions masked")

	if err := fs.Parse(args); err != nil {
		return 2
	}

	mcfg := model.Config{
		Vocab: *vocab, MaxPos: *maxpos, NumLayers: *layers,
		DModel: *dmodel, Heads: *heads, DFF: *dff,
	}
	ecfg := serve.Config{
		Model: mcfg, Seed: *seed,
		MaxBatch: *maxBatch, QueueCap: *queueCap,
	}
	if *traceSample > 0 {
		ecfg.Tracer = trace.New(0, 0)
		ecfg.Tracer.SetSampleEvery(*traceSample)
	}
	spec := serve.LoadSpec{
		Rate: *rate, Duration: *duration,
		MinLen: *minLen, MaxLen: *maxLen,
		MaskFrac: *maskFrac, Vocab: *vocab, Seed: *seed,
	}

	if *loadgen {
		return runLoadgen(spec, *target, stdout, stderr)
	}
	return runServer(ecfg, *addr, *traceOut, stdout, stderr)
}

// runServer serves until SIGINT/SIGTERM, then drains: HTTP first (stop
// accepting, finish in-flight request bodies), engine second (answer
// everything admitted).
func runServer(ecfg serve.Config, addr, traceOut string, stdout, stderr io.Writer) int {
	sd := runutil.Install(stderr)
	defer sd.Drain()

	engine, srv, err := serve.Start(ecfg, addr)
	if err != nil {
		fmt.Fprintf(stderr, "bertserve: %v\n", err)
		return 1
	}
	done := make(chan struct{})
	if traceOut != "" && ecfg.Tracer != nil {
		// Registered before "drain engine" so it runs after: Defers run
		// LIFO, and the dump must see the final in-flight spans land.
		sd.Defer("trace dump", func() {
			f, err := os.Create(traceOut)
			if err != nil {
				fmt.Fprintf(stderr, "bertserve: trace out: %v\n", err)
				return
			}
			werr := engine.WriteTrace(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(stderr, "bertserve: writing trace: %v\n", werr)
			}
		})
	}
	sd.Defer("drain engine", func() { engine.Close(); close(done) })
	sd.Defer("drain http", func() { srv.ShutdownTimeout(5 * time.Second) })

	eff := engine.Config()
	fmt.Fprintf(stdout, "bertserve: serving on http://%s/v1/mlm (kernel=%s, max_len=%d, max_batch=%d, warmed %d packs)\n",
		srv.Addr, kernels.ActiveKernel(), eff.Model.MaxPos, eff.MaxBatch, engine.WarmedPacks)
	<-done // signal handler drains and exits the process
	return 0
}

// runLoadgen drives an external server over HTTP with open-loop load.
func runLoadgen(spec serve.LoadSpec, target string, stdout, stderr io.Writer) int {
	if target == "" {
		fmt.Fprintf(stderr, "bertserve: -loadgen requires -target URL\n")
		return 2
	}
	client := &http.Client{Timeout: 30 * time.Second}
	res := serve.RunLoad(spec, httpTarget(client, target))
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(res)
	if res.OK == 0 {
		fmt.Fprintf(stderr, "bertserve: no request succeeded against %s\n", target)
		return 1
	}
	return 0
}

// httpTarget adapts a serving URL to the loadgen Target signature,
// mapping 429 back to ErrOverloaded so rejection accounting matches
// in-process runs.
func httpTarget(client *http.Client, base string) serve.Target {
	url := strings.TrimSuffix(base, "/") + "/v1/mlm"
	return func(req *serve.Request) (*serve.Response, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		hr, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer hr.Body.Close()
		if hr.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, hr.Body)
			return nil, serve.ErrOverloaded
		}
		if hr.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(hr.Body)
			return nil, fmt.Errorf("HTTP %d: %s", hr.StatusCode, bytes.TrimSpace(b))
		}
		var resp serve.Response
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
}
