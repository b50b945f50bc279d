package distnet

import (
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/ddp"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// joinWorld stands up a full loopback process group, one goroutine per
// rank, and fails the test if any rank cannot join.
func joinWorld(t *testing.T, world int, timeout time.Duration) []*Group {
	t.Helper()
	groups, err := JoinLoopback(world, timeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, g := range groups {
			g.Close()
		}
	})
	return groups
}

// allReduceAll runs one collective across every rank concurrently.
func allReduceAll(t *testing.T, groups []*Group, tag uint32, bufs [][]float32) {
	t.Helper()
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for r := range groups {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = groups[r].AllReduce(tag, bufs[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d allreduce: %v", r, err)
		}
	}
}

// The TCP ring must produce bit-identical sums to the in-process
// ddp ring: same chunk bounds, same accumulation schedule.
func TestAllReduceMatchesInProcessRing(t *testing.T) {
	rng := tensor.NewRNG(11)
	for _, world := range []int{2, 3, 4} {
		for _, n := range []int{0, 1, 7, 1000, 4096} {
			groups := joinWorld(t, world, 10*time.Second)
			net := make([][]float32, world)
			ref := make([][]float32, world)
			for r := range net {
				net[r] = make([]float32, n)
				ref[r] = make([]float32, n)
				for j := range net[r] {
					v := rng.Float32() - 0.5
					net[r][j] = v
					ref[r][j] = v
				}
			}
			allReduceAll(t, groups, 42, net)
			ddp.RingAllReduce(ref)
			for r := range net {
				for j := range net[r] {
					if net[r][j] != ref[r][j] {
						t.Fatalf("world=%d n=%d rank %d elem %d: tcp %v vs in-process %v",
							world, n, r, j, net[r][j], ref[r][j])
					}
				}
			}
			for _, g := range groups {
				g.Close()
			}
		}
	}
}

func TestAllReduceReusesGroupAcrossCollectives(t *testing.T) {
	groups := joinWorld(t, 2, 10*time.Second)
	for round := 0; round < 5; round++ {
		bufs := [][]float32{{1, 2, 3}, {10, 20, 30}}
		allReduceAll(t, groups, uint32(round), bufs)
		for r := range bufs {
			if bufs[r][0] != 11 || bufs[r][2] != 33 {
				t.Fatalf("round %d rank %d: %v", round, r, bufs[r])
			}
		}
	}
}

func TestBarrierReleasesAllRanks(t *testing.T) {
	groups := joinWorld(t, 3, 10*time.Second)
	for round := 0; round < 3; round++ {
		errs := make([]error, len(groups))
		var wg sync.WaitGroup
		for r := range groups {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = groups[r].Barrier()
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("round %d rank %d barrier: %v", round, r, err)
			}
		}
	}
}

func TestProbeLinkReturnsPlausibleNumbers(t *testing.T) {
	groups := joinWorld(t, 2, 10*time.Second)
	bws := make([]float64, 2)
	lats := make([]time.Duration, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range groups {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bws[r], lats[r], errs[r] = groups[r].ProbeLink(1<<16, 2)
		}(r)
	}
	wg.Wait()
	for r := range groups {
		if errs[r] != nil {
			t.Fatalf("rank %d probe: %v", r, errs[r])
		}
		if bws[r] <= 0 || lats[r] <= 0 {
			t.Fatalf("rank %d: bandwidth %v B/s latency %v", r, bws[r], lats[r])
		}
	}
}

func TestPlanBucketsCoversParamsAndRespectsLimits(t *testing.T) {
	cfg := model.Tiny()
	m, err := model.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups := m.GradGroups()
	const bucketBytes = 32 * 1024
	p := PlanBuckets(groups, bucketBytes)

	want := 0
	for _, prm := range m.Params() {
		want += prm.Size()
	}
	if p.Elems() != want {
		t.Fatalf("plan covers %d elems, model has %d", p.Elems(), want)
	}
	seen := map[*nn.Param]bool{}
	off := 0
	lastGroup := 0
	for i := range p.List {
		b := &p.List[i]
		if b.Off != off {
			t.Fatalf("bucket %d starts at %d, want %d (gaps/overlap)", i, b.Off, off)
		}
		off += b.Len
		if b.ReadyGroup < lastGroup {
			t.Fatalf("bucket %d ready group %d regresses below %d", i, b.ReadyGroup, lastGroup)
		}
		lastGroup = b.ReadyGroup
		elems := 0
		for _, prm := range b.Params {
			if seen[prm] {
				t.Fatalf("param %s in two buckets", prm.Name)
			}
			seen[prm] = true
			elems += prm.Size()
		}
		if elems != b.Len {
			t.Fatalf("bucket %d declares %d elems, params hold %d", i, b.Len, elems)
		}
		if 4*b.Len > bucketBytes && len(b.Params) > 1 {
			t.Fatalf("bucket %d is %d bytes with %d params; only single oversize params may exceed the cap",
				i, 4*b.Len, len(b.Params))
		}
	}
	if len(seen) != len(m.Params()) {
		t.Fatalf("buckets hold %d params, model has %d", len(seen), len(m.Params()))
	}
	if len(p.List) <= len(groups) {
		t.Fatalf("32KB cap should split Tiny's groups: got %d buckets for %d groups", len(p.List), len(groups))
	}

	// <=0 bucket size: one bucket per ready group.
	if got := len(PlanBuckets(groups, 0).List); got != len(groups) {
		t.Fatalf("bucketBytes<=0: %d buckets for %d groups", got, len(groups))
	}
}

// runTrainWorld runs distnet.Train across `world` loopback ranks and
// returns each rank's result and final model.
func runTrainWorld(t *testing.T, world, steps, bucketBytes int, overlap bool, seed uint64) ([]*Result, []*model.BERT) {
	return runTrainWorldCfg(t, model.Tiny(), world, steps, bucketBytes, overlap, seed, false)
}

func runTrainWorldCfg(t *testing.T, cfg model.Config, world, steps, bucketBytes int, overlap bool, seed uint64, fixedData bool) ([]*Result, []*model.BERT) {
	t.Helper()
	addr := ""
	var ln net.Listener
	if world > 1 {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr = ln.Addr().String()
	}
	results := make([]*Result, world)
	models := make([]*model.BERT, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tc := TrainConfig{
				Rank: r, World: world, Addr: addr, Timeout: 20 * time.Second,
				Model: cfg, Seed: seed, Steps: steps, B: 2, N: 16,
				BucketBytes: bucketBytes, Overlap: overlap, FixedData: fixedData,
			}
			if r == 0 {
				tc.Listener = ln
			}
			results[r], models[r], errs[r] = Train(tc)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d train: %v", r, err)
		}
	}
	return results, models
}

func paramsBitEqual(t *testing.T, label string, a, b *model.BERT) {
	t.Helper()
	ap, bp := a.Params(), b.Params()
	if len(ap) != len(bp) {
		t.Fatalf("%s: param count %d vs %d", label, len(ap), len(bp))
	}
	for i := range ap {
		av, bv := ap[i].Value.Data(), bp[i].Value.Data()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("%s: %s[%d]: %v vs %v (bitwise divergence)",
					label, ap[i].Name, j, av[j], bv[j])
			}
		}
	}
}

// The cross-process-shaped satellite: world=2 loopback training must be
// bit-identical to the in-process ddp trainer on the same seeds and data
// schedule, identical across ranks, identical with and without overlap,
// and reproducible run-to-run. world=1 must match plain serial training.
func TestTrainWorld2BitwiseMatchesDDPAndSerial(t *testing.T) {
	const seed, steps, bucketBytes = 7, 3, 32 * 1024
	cfg := model.Tiny()

	// In-process ddp baseline on the identical data schedule.
	ddpTr, err := ddp.NewTrainer(cfg, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer ddpTr.Close()
	gen := data.NewGenerator(cfg.Vocab, 0.15, seed+1000003)
	var ddpLosses []float64
	for s := 0; s < steps; s++ {
		losses, err := ddpTr.Step([]*data.Batch{gen.Next(2, 16), gen.Next(2, 16)})
		if err != nil {
			t.Fatal(err)
		}
		ddpLosses = append(ddpLosses, losses...)
	}

	resOv, modelsOv := runTrainWorld(t, 2, steps, bucketBytes, true, seed)
	if resOv[0].Buckets < 3 {
		t.Fatalf("expected multiple buckets at %dB, got %d", bucketBytes, resOv[0].Buckets)
	}
	for s := 0; s < steps; s++ {
		for r := 0; r < 2; r++ {
			if got, want := resOv[r].Losses[s], ddpLosses[2*s+r]; got != want {
				t.Fatalf("step %d rank %d loss %v, ddp replica loss %v", s, r, got, want)
			}
		}
	}
	paramsBitEqual(t, "rank1 vs rank0", modelsOv[1], modelsOv[0])
	paramsBitEqual(t, "distnet vs ddp", modelsOv[0], ddpTr.Replicas[0])

	// Overlap must change timing only, never numerics.
	_, modelsSeq := runTrainWorld(t, 2, steps, bucketBytes, false, seed)
	paramsBitEqual(t, "overlap vs sequential", modelsOv[0], modelsSeq[0])

	// Run-to-run determinism.
	_, modelsAgain := runTrainWorld(t, 2, steps, bucketBytes, true, seed)
	paramsBitEqual(t, "run 1 vs run 2", modelsOv[0], modelsAgain[0])

	// world=1 must equal plain serial training (no sync, no averaging).
	_, models1 := runTrainWorld(t, 1, steps, bucketBytes, true, seed)
	serial, err := model.New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &nn.Ctx{Prof: profile.New(), RNG: tensor.NewRNG(seed), Train: true}
	opt := optim.NewLAMB(0.01)
	sgen := data.NewGenerator(cfg.Vocab, 0.15, seed+1000003)
	for s := 0; s < steps; s++ {
		b := sgen.Next(2, 16)
		ctx.Prof.BeginIteration()
		serial.Forward(ctx, b)
		serial.Backward(ctx)
		opt.Step(ctx, serial.Params())
		serial.ZeroGrads()
	}
	paramsBitEqual(t, "world=1 vs serial", models1[0], serial)
}

func TestTrainLossDecreases(t *testing.T) {
	cfg := model.Tiny()
	cfg.DropProb = 0
	res, _ := runTrainWorldCfg(t, cfg, 2, 6, 64*1024, true, 21, true)
	for _, r := range res {
		first, last := r.Losses[0], r.Losses[len(r.Losses)-1]
		if !(last < first) || math.IsNaN(last) {
			t.Fatalf("rank %d loss did not fall: %v -> %v", r.Rank, first, last)
		}
		if r.CommMS <= 0 || r.WireBytesPerStep <= 0 {
			t.Fatalf("rank %d: missing comm accounting: comm %vms wire %dB", r.Rank, r.CommMS, r.WireBytesPerStep)
		}
	}
}

// --- robustness -------------------------------------------------------

// A rank dying mid-all-reduce must surface as an error at every
// surviving rank, promptly — not a hung worker.
func TestPeerDeathMidAllReduceFailsSurvivors(t *testing.T) {
	const world, n, killAt = 3, 1 << 14, 3
	groups := joinWorld(t, world, 3*time.Second)
	bufs := make([][]float32, world)
	for r := range bufs {
		bufs[r] = make([]float32, n)
	}
	errs := make([]error, world)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := groups[r]
			for i := 0; i < 1000; i++ {
				if r == world-1 && i == killAt {
					g.Close() // simulated crash: sockets torn down mid-protocol
					return
				}
				if errs[r] = g.AllReduce(uint32(i), bufs[r]); errs[r] != nil {
					return
				}
			}
		}(r)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("survivors hung after peer death; errors must surface within the deadline")
	}
	for r := 0; r < world-1; r++ {
		if errs[r] == nil {
			t.Fatalf("rank %d saw no error after peer death", r)
		}
	}
	// The group is poisoned: later collectives fail immediately.
	if err := groups[0].AllReduce(9999, bufs[0]); err == nil {
		t.Fatal("failed group accepted a new collective")
	}
}

// Rank 0 with absent workers must give up at the handshake deadline.
func TestHandshakeTimeoutRank0(t *testing.T) {
	start := time.Now()
	_, err := Join(Config{Rank: 0, World: 2, Addr: "127.0.0.1:0", Timeout: 700 * time.Millisecond})
	if err == nil {
		t.Fatal("rank 0 joined a group nobody else entered")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rank 0 took %v to time out", elapsed)
	}
}

// A worker dialing a dead rendezvous must give up at the deadline.
func TestHandshakeTimeoutWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore
	start := time.Now()
	_, err = Join(Config{Rank: 1, World: 2, Addr: addr, Timeout: 700 * time.Millisecond})
	if err == nil {
		t.Fatal("worker joined a dead rendezvous")
	}
	if !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("want a timeout error, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("worker took %v to time out", elapsed)
	}
}

// Duplicate ranks must be rejected at rendezvous, with every
// participant — including the impostor — getting an error.
func TestDuplicateRankRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ranks := []int{0, 1, 1} // world 3, rank 2 never shows; rank 1 twice
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, r := range ranks {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			cfg := Config{Rank: r, World: 3, Addr: addr, Timeout: 2 * time.Second}
			if i == 0 {
				cfg.Listener = ln
			}
			_, errs[i] = Join(cfg)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("participant %d (rank %d) joined despite duplicate ranks", i, ranks[i])
		}
	}
	if !strings.Contains(errs[0].Error(), "duplicate rank") {
		t.Fatalf("rank 0 error should name the duplicate, got: %v", errs[0])
	}
}

// World-size disagreement is a config bug; fail fast everywhere.
func TestWorldSizeMismatchRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = Join(Config{Rank: 0, World: 2, Addr: addr, Listener: ln, Timeout: 2 * time.Second})
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = Join(Config{Rank: 1, World: 3, Addr: addr, Timeout: 2 * time.Second})
	}()
	wg.Wait()
	if errs[0] == nil || errs[1] == nil {
		t.Fatalf("world mismatch accepted: rank0=%v rank1=%v", errs[0], errs[1])
	}
	if !strings.Contains(errs[0].Error(), "world") {
		t.Fatalf("rank 0 error should mention world size, got: %v", errs[0])
	}
}

func TestJoinValidatesConfig(t *testing.T) {
	if _, err := Join(Config{Rank: 0, World: 0}); err == nil {
		t.Fatal("world 0 accepted")
	}
	if _, err := Join(Config{Rank: 2, World: 2, Addr: "127.0.0.1:1"}); err == nil {
		t.Fatal("rank out of range accepted")
	}
	// world=1 needs no sockets at all.
	g, err := Join(Config{Rank: 0, World: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buf := []float32{1, 2, 3}
	if err := g.AllReduce(0, buf); err != nil || buf[0] != 1 {
		t.Fatalf("world-1 allreduce must be identity: %v %v", buf, err)
	}
	if err := g.Barrier(); err != nil {
		t.Fatal(err)
	}
}
