package main

// Real multi-process data-parallel training (internal/distnet), driven
// from the same binary that renders the analytical Fig. 11 profiles:
//
//	bertdist -launch 2 -steps 6            # fork 2 loopback ranks, train
//	bertdist -rank 1 -world 2 -addr H:P    # one rank, joined manually
//
// The launcher forks this executable once per rank; workers rendezvous
// at rank 0's TCP address, train on deterministic synthetic data, and
// report per-rank results as JSON files the launcher aggregates.
// Measured scaling (step time, exposed communication, efficiency against
// the single-rank run) is the benchmark's job: `go run ./bench -workload
// dist_w2`.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"demystbert/internal/distnet"
	"demystbert/internal/memscale"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/runutil"
	"demystbert/internal/trace"
)

// workerArgsEnv lets the test binary re-exec itself as a worker: the
// launcher always sets it, main binaries ignore it, and TestMain
// intercepts it before the test runner takes over.
const workerArgsEnv = "BERTDIST_WORKER_ARGS"

// trainFlags carries every knob shared by the worker and launcher modes.
type trainFlags struct {
	rank, world int
	addr        string
	launch      int

	steps, trainB, seq    int
	layers, dmodel, vocab int
	bucketKB              int
	seed                  uint64
	drop                  float64
	fixedData             bool
	noOverlap             bool
	zero1                 bool
	netTimeout            time.Duration

	trace    bool
	traceOut string

	paramsOut, resultOut, jsonOut string
}

func (tf *trainFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&tf.launch, "launch", 0, "fork N loopback worker processes and train data-parallel")
	fs.IntVar(&tf.rank, "rank", 0, "this process's rank (with -world)")
	fs.IntVar(&tf.world, "world", 0, "process-group size; >0 switches to real distributed training")
	fs.StringVar(&tf.addr, "addr", "127.0.0.1:29500", "rank 0's rendezvous address")
	fs.IntVar(&tf.steps, "steps", 6, "training steps")
	fs.IntVar(&tf.trainB, "train-b", 4, "per-rank microbatch size")
	fs.IntVar(&tf.seq, "seq", 32, "sequence length")
	fs.IntVar(&tf.layers, "layers", 2, "transformer layers")
	fs.IntVar(&tf.dmodel, "dmodel", 64, "hidden size (heads = dmodel/16, dff = 4*dmodel)")
	fs.IntVar(&tf.vocab, "vocab", 1000, "vocabulary size")
	fs.IntVar(&tf.bucketKB, "bucket-kb", 128, "gradient bucket size in KB (0 = one bucket per layer group)")
	fs.Uint64Var(&tf.seed, "seed", 7, "model/data seed (identical across ranks)")
	fs.Float64Var(&tf.drop, "drop", -1, "dropout override (<0 keeps the config default)")
	fs.BoolVar(&tf.fixedData, "fixed-data", false, "repeat the first batch every step (convergence smoke)")
	fs.BoolVar(&tf.zero1, "zero1", false, "shard optimizer state ZeRO-1 style: each rank keeps m/v for its shard only and all-gathers updated weights")
	fs.DurationVar(&tf.netTimeout, "net-timeout", 30*time.Second, "handshake and per-frame I/O deadline")
	fs.BoolVar(&tf.trace, "trace", false, "record per-step spans on every rank; rank 0 merges them clock-aligned and reports per-step stragglers")
	fs.StringVar(&tf.traceOut, "trace-out", "", "with -trace: write the merged multi-rank Perfetto timeline here (rank 0)")
	fs.StringVar(&tf.paramsOut, "params-out", "", "write this rank's final model checkpoint here")
	fs.StringVar(&tf.resultOut, "result-out", "", "write this rank's result JSON here")
	fs.StringVar(&tf.jsonOut, "json", "", "with -launch: write aggregated per-rank results here")
}

func (tf *trainFlags) modelConfig() model.Config {
	cfg := model.Tiny()
	cfg.NumLayers = tf.layers
	cfg.DModel = tf.dmodel
	cfg.Heads = tf.dmodel / 16
	if cfg.Heads < 1 {
		cfg.Heads = 1
	}
	cfg.DFF = 4 * tf.dmodel
	cfg.Vocab = tf.vocab
	if tf.seq > cfg.MaxPos {
		cfg.MaxPos = tf.seq
	}
	if tf.drop >= 0 {
		cfg.DropProb = float32(tf.drop)
	}
	return cfg
}

func (tf *trainFlags) trainConfig() distnet.TrainConfig {
	return distnet.TrainConfig{
		Rank: tf.rank, World: tf.world, Addr: tf.addr, Timeout: tf.netTimeout,
		Model: tf.modelConfig(), Seed: tf.seed, Steps: tf.steps,
		B: tf.trainB, N: tf.seq,
		BucketBytes: tf.bucketKB * 1024, Overlap: !tf.noOverlap,
		FixedData: tf.fixedData, ProbeElems: 1 << 16,
		Trace: tf.trace, TraceOut: tf.traceOut,
	}
}

// atomicCkpt snapshots model weights to disk so that a SIGTERM landing
// mid-run still leaves a complete, loadable checkpoint: saves go to a
// temp file in the destination directory and rename into place, and the
// mutex excludes the trainer's optimizer step (the only writer of
// parameter values), making every snapshot step-consistent.
type atomicCkpt struct {
	mu   sync.Mutex
	m    *model.BERT
	path string
}

func (c *atomicCkpt) attach(m *model.BERT) {
	c.mu.Lock()
	c.m = m
	c.mu.Unlock()
}

func (c *atomicCkpt) save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || c.path == "" {
		return nil
	}
	if err := saveParamsAtomic(c.path, c.m); err != nil {
		return err
	}
	c.m = nil // saved cleanly; a later drain has nothing newer to write
	return nil
}

// saveParamsAtomic writes the checkpoint via temp-file + rename, so a
// reader never observes a truncated file: they get the previous complete
// checkpoint or the new complete one, nothing in between.
func saveParamsAtomic(path string, m *model.BERT) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := m.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// trainWorker runs one rank to completion.
func trainWorker(tf *trainFlags, stdout, stderr io.Writer, sd *runutil.Shutdown) int {
	cfg := tf.trainConfig()
	ck := &atomicCkpt{path: tf.paramsOut}
	cfg.WireTrainer = func(t *distnet.Trainer) error {
		if tf.zero1 && t.G.World() > 1 {
			sh, err := memscale.NewSharded(t.Opt, t.M.Params(), t.G.World(), t.G)
			if err != nil {
				return err
			}
			t.OptStep = sh.Step
		}
		// Serialize weight updates against checkpoint snapshots so the
		// SIGTERM drain never captures a half-applied step.
		step, opt := t.OptStep, t.Opt
		t.OptStep = func(ctx *nn.Ctx, params []*nn.Param) error {
			ck.mu.Lock()
			defer ck.mu.Unlock()
			if step != nil {
				return step(ctx, params)
			}
			opt.Step(ctx, params)
			return nil
		}
		ck.attach(t.M)
		return nil
	}
	if tf.paramsOut != "" {
		sd.Defer("mid-run checkpoint", func() {
			if err := ck.save(); err != nil {
				fmt.Fprintf(stderr, "bertdist: checkpoint: %v\n", err)
			}
		})
	}
	res, _, err := distnet.Train(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bertdist: rank %d: %v\n", tf.rank, err)
		return 1
	}
	fmt.Fprintf(stdout, "rank %d/%d: %d steps, %d buckets, step %.2fms (fwd %.2f bwd %.2f comm %.2f exposed %.2f upd %.2f)\n",
		res.Rank, res.World, res.Steps, res.Buckets,
		res.StepMS, res.FwdMS, res.BwdMS, res.CommMS, res.ExposedMS, res.UpdMS)
	reportLossTrend(stdout, res.Losses)
	if tf.resultOut != "" {
		if err := writeJSON(tf.resultOut, res); err != nil {
			fmt.Fprintf(stderr, "bertdist: %v\n", err)
			return 1
		}
	}
	if tf.paramsOut != "" {
		if err := ck.save(); err != nil {
			fmt.Fprintf(stderr, "bertdist: checkpoint: %v\n", err)
			return 1
		}
	}
	return 0
}

func reportLossTrend(w io.Writer, losses []float64) {
	if len(losses) == 0 {
		return
	}
	first, last := losses[0], losses[len(losses)-1]
	trend := "rose"
	if last < first {
		trend = "fell"
	}
	fmt.Fprintf(w, "loss %s %.4f -> %.4f over %d steps\n", trend, first, last, len(losses))
}

// forkWorld forks one worker process per rank on a free loopback port
// and returns their results. Children are SIGTERMed if the parent is
// asked to shut down mid-run.
func forkWorld(tf *trainFlags, stderr io.Writer, sd *runutil.Shutdown) ([]*distnet.Result, error) {
	world := tf.launch
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "bertdist-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// os/exec serializes the writes of one child's stdout and stderr, but
	// not those of different children: every rank shares one lock.
	childOut := &lockedWriter{w: stderr}
	cmds := make([]*exec.Cmd, world)
	for r := 0; r < world; r++ {
		args := []string{
			"-rank", strconv.Itoa(r),
			"-world", strconv.Itoa(world),
			"-addr", addr,
			"-steps", strconv.Itoa(tf.steps),
			"-train-b", strconv.Itoa(tf.trainB),
			"-seq", strconv.Itoa(tf.seq),
			"-layers", strconv.Itoa(tf.layers),
			"-dmodel", strconv.Itoa(tf.dmodel),
			"-vocab", strconv.Itoa(tf.vocab),
			"-bucket-kb", strconv.Itoa(tf.bucketKB),
			"-seed", strconv.FormatUint(tf.seed, 10),
			"-drop", strconv.FormatFloat(tf.drop, 'g', -1, 64),
			"-net-timeout", tf.netTimeout.String(),
			"-result-out", filepath.Join(dir, fmt.Sprintf("rank%d.json", r)),
		}
		if tf.noOverlap {
			args = append(args, "-no-overlap")
		}
		if tf.fixedData {
			args = append(args, "-fixed-data")
		}
		if tf.zero1 {
			args = append(args, "-zero1")
		}
		if tf.trace {
			// Clock sync and the shard exchange are collectives: every rank
			// must trace, but only rank 0 writes the merged timeline.
			args = append(args, "-trace")
			if r == 0 && tf.traceOut != "" {
				args = append(args, "-trace-out", tf.traceOut)
			}
		}
		if r == 0 && tf.paramsOut != "" {
			args = append(args, "-params-out", tf.paramsOut)
		}
		encoded, err := json.Marshal(args)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), workerArgsEnv+"="+string(encoded))
		cmd.Stdout = childOut // keep the parent's stdout for the summary
		cmd.Stderr = childOut
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:r] {
				c.Process.Signal(syscall.SIGTERM)
			}
			return nil, fmt.Errorf("starting rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	sd.Defer("distributed workers", func() {
		for _, c := range cmds {
			if c != nil && c.Process != nil {
				c.Process.Signal(syscall.SIGTERM)
			}
		}
	})

	var firstErr error
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", r, err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	results := make([]*distnet.Result, world)
	for r := range results {
		var res distnet.Result
		if err := readJSON(filepath.Join(dir, fmt.Sprintf("rank%d.json", r)), &res); err != nil {
			return nil, fmt.Errorf("rank %d result: %w", r, err)
		}
		results[r] = &res
	}
	return results, nil
}

// lockedWriter serializes writes from concurrent goroutines into w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// launchLocal is the `-launch N` mode: fork, wait, aggregate, summarize.
func launchLocal(tf *trainFlags, stdout, stderr io.Writer, sd *runutil.Shutdown) int {
	world := tf.launch
	results, err := forkWorld(tf, stderr, sd)
	if err != nil {
		fmt.Fprintf(stderr, "bertdist: launch: %v\n", err)
		return 1
	}
	r0 := results[0]
	fmt.Fprintf(stdout, "distributed training: world=%d overlap=%v buckets=%d grad_elems=%d\n",
		world, r0.Overlap, r0.Buckets, r0.GradElems)
	var meanFirst, meanLast float64
	for _, r := range results {
		fmt.Fprintf(stdout, "rank %d: step %.2fms comm %.2fms exposed %.2fms wire %dB/step\n",
			r.Rank, r.StepMS, r.CommMS, r.ExposedMS, r.WireBytesPerStep)
		meanFirst += r.Losses[0] / float64(world)
		meanLast += r.Losses[len(r.Losses)-1] / float64(world)
	}
	trend := "rose"
	if meanLast < meanFirst {
		trend = "fell"
	}
	fmt.Fprintf(stdout, "loss %s %.4f -> %.4f over %d steps (mean across ranks)\n",
		trend, meanFirst, meanLast, r0.Steps)
	if tf.trace {
		for _, r := range results[1:] {
			fmt.Fprintf(stdout, "rank %d clock offset: %+.0fus\n", r.Rank, r.ClockOffsetUS)
		}
		trace.WriteStragglerTable(stdout, r0.Straggler)
		if tf.traceOut != "" {
			fmt.Fprintf(stdout, "wrote merged trace %s (open in https://ui.perfetto.dev)\n", tf.traceOut)
		}
	}
	if tf.jsonOut != "" {
		if err := writeJSON(tf.jsonOut, results); err != nil {
			fmt.Fprintf(stderr, "bertdist: %v\n", err)
			return 1
		}
	}
	return 0
}

func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
