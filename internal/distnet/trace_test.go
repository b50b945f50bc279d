package distnet

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/trace"
)

// Clock sync over the real loopback wire: rank 0 is the reference (zero
// offset by definition) and the worker's measured offset must be tiny —
// both sides share one physical clock, so anything past a few hundred
// milliseconds means the protocol mixed up t1/t2/t3.
func TestClockSyncWorld2(t *testing.T) {
	groups := joinWorld(t, 2, 5*time.Second)
	offs := make([]time.Duration, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range groups {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			offs[r], errs[r] = groups[r].ClockSync(DefaultClockRounds)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d clock sync: %v", r, err)
		}
	}
	if offs[0] != 0 {
		t.Fatalf("rank 0 offset %v, want 0 (it is the reference)", offs[0])
	}
	if d := offs[1]; d < -200*time.Millisecond || d > 200*time.Millisecond {
		t.Fatalf("worker offset %v implausible for a shared clock", d)
	}
}

// Shard exchange over the control streams: the worker's spans arrive on
// rank 0 intact, offset attached, with rank 0's own shard first.
func TestTraceShardExchange(t *testing.T) {
	groups := joinWorld(t, 2, 5*time.Second)
	base := time.Unix(0, 1_700_000_000_000_000_000)
	workerShard := trace.Shard{
		Rank:   1,
		Offset: 3 * time.Millisecond,
		Spans: []trace.Span{
			{Trace: trace.StepTraceID(1), Name: "bwd", Rank: 1, Step: 1,
				Start: base, Dur: 5 * time.Millisecond},
		},
	}
	ownShard := trace.Shard{Rank: 0, Spans: []trace.Span{
		{Trace: trace.StepTraceID(1), Name: "bwd", Rank: 0, Step: 1,
			Start: base, Dur: 4 * time.Millisecond},
	}}

	var shards []trace.Shard
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		shards, errs[0] = groups[0].GatherTraceShards(ownShard)
	}()
	go func() {
		defer wg.Done()
		errs[1] = groups[1].SendTraceShard(workerShard)
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d shard exchange: %v", r, err)
		}
	}
	if len(shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(shards))
	}
	if shards[0].Rank != 0 || shards[1].Rank != 1 {
		t.Fatalf("shard order ranks %d,%d, want 0,1", shards[0].Rank, shards[1].Rank)
	}
	got := shards[1]
	if got.Offset != workerShard.Offset {
		t.Fatalf("worker offset %v survived the wire as %v", workerShard.Offset, got.Offset)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "bwd" || got.Spans[0].Dur != 5*time.Millisecond {
		t.Fatalf("worker spans mangled in transit: %+v", got.Spans)
	}
}

// End-to-end: a traced world-2 training run produces a straggler report
// on rank 0 with every step attributed to a real rank, and the merged
// Perfetto file on disk parses with both ranks' tracks present.
func TestTrainWithTraceProducesStragglerReport(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rank training run")
	}
	out := filepath.Join(t.TempDir(), "trace.json")
	world, steps := 2, 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	results := make([]*Result, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tc := TrainConfig{
				Rank: r, World: world, Addr: addr, Timeout: 20 * time.Second,
				Model: model.Tiny(), Seed: 42, Steps: steps, B: 2, N: 16,
				Overlap: true, Trace: true,
			}
			if r == 0 {
				tc.Listener = ln
				tc.TraceOut = out
			}
			results[r], _, errs[r] = Train(tc)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d train: %v", r, err)
		}
	}

	rep := results[0].Straggler
	if len(rep) != steps {
		t.Fatalf("straggler report covers %d steps, want %d", len(rep), steps)
	}
	for _, s := range rep {
		if s.GatingRank < 0 || s.GatingRank >= world {
			t.Fatalf("step %d gated by rank %d, world is %d", s.Step, s.GatingRank, world)
		}
		if len(s.Ranks) != world {
			t.Fatalf("step %d has %d rank entries, want %d", s.Step, len(s.Ranks), world)
		}
	}
	for r, res := range results {
		if res.GatherMS <= 0 || res.OptStateBytes <= 0 || res.OptStateBytes >= 8*int64(res.GradElems) {
			t.Fatalf("rank %d: gather %vms, opt state %dB of a %d-element model", r, res.GatherMS, res.OptStateBytes, res.GradElems)
		}
	}
	if results[1].Straggler != nil {
		t.Fatalf("worker rank carries a straggler report; only rank 0 should")
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("merged trace file: %v", err)
	}
	var events []struct {
		Ph   string `json:"ph"`
		TID  int    `json:"tid"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	tids := map[int]bool{}
	names := map[string]bool{}
	for _, ev := range events {
		if ev.Ph == "X" {
			tids[ev.TID] = true
			names[ev.Name] = true
		}
	}
	for r := 0; r < world; r++ {
		if !tids[r+1] {
			t.Fatalf("merged trace missing rank %d track (tids seen: %v)", r, tids)
		}
	}
	for _, want := range []string{"step", "fwd", "bwd", "upd", "allreduce.b0", "gradnorm", "allgather.w"} {
		if !names[want] {
			t.Fatalf("merged trace has no %q span", want)
		}
	}
	// Rank 0's kernel events ride along: Train installs its profiler.
	if !names["linear_fwd_gemm"] {
		t.Fatal("merged trace has no kernel slice (linear_fwd_gemm)")
	}
}

// A trainer keeps no kernel events unless its caller installs a
// profiler, so a long run does not grow by one event per kernel per step.
func TestNewTrainerRecordsNoKernelEvents(t *testing.T) {
	m, err := model.New(model.Tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(joinWorld(t, 1, 10*time.Second)[0], m, 7, 32*1024, true, 0.01)
	gen := data.NewGenerator(model.Tiny().Vocab, 0.15, 1)
	for i := 0; i < 3; i++ {
		if _, _, err := tr.Step(gen.Next(2, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if n := tr.Ctx.Prof.KernelCount(); n != 0 {
		t.Fatalf("3 steps recorded %d kernel events, want 0", n)
	}
}
