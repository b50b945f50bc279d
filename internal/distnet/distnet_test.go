package distnet

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"demystbert/internal/data"
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

// ringOrderSum is the serial reference for Group.AllReduce: chunk c =
// [c·n/d, (c+1)·n/d) is folded starting at its owner rank c, then
// acc = x[(c+k)%d] + acc for k = 1..d-1.
func ringOrderSum(x [][]float32) []float32 {
	d, n := len(x), len(x[0])
	out := make([]float32, n)
	for c := 0; c < d; c++ {
		for i := c * n / d; i < (c+1)*n/d; i++ {
			acc := x[c][i]
			for k := 1; k < d; k++ {
				acc = x[(c+k)%d][i] + acc
			}
			out[i] = acc
		}
	}
	return out
}

// orderMatters reports whether summing x in rank order 0..d-1 differs
// from ref anywhere.
func orderMatters(x [][]float32, ref []float32) bool {
	for i := range ref {
		acc := x[0][i]
		for _, xr := range x[1:] {
			acc += xr[i]
		}
		if acc != ref[i] {
			return true
		}
	}
	return false
}

// The TCP ring must leave every rank holding exactly the serial
// ring-order sum: same chunk bounds, same accumulation order. Worlds
// with more ranks than elements (empty chunks) are included. The inputs
// are normal draws, whose full mantissas make a sum of three or more
// round differently under another association — so the pin sees order.
func TestAllReduceMatchesInProcessRing(t *testing.T) {
	rng := tensor.NewRNG(11)
	for _, world := range []int{2, 3, 4} {
		for _, n := range []int{0, 1, 7, 1000, 4096} {
			groups := joinWorld(t, world, 10*time.Second)
			bufs := make([][]float32, world)
			for r := range bufs {
				bufs[r] = make([]float32, n)
				for j := range bufs[r] {
					bufs[r][j] = rng.NormFloat32()
				}
			}
			want := ringOrderSum(bufs)
			if world > 2 && n >= 1000 && !orderMatters(bufs, want) {
				t.Fatalf("world=%d n=%d: rank-order sums equal the ring-order reference everywhere; the inputs cannot tell fold orders apart", world, n)
			}
			allReduceAll(t, groups, 42, bufs)
			for r := range bufs {
				for j := range bufs[r] {
					if bufs[r][j] != want[j] {
						t.Fatalf("world=%d n=%d rank %d elem %d: tcp %v vs ring-order reference %v",
							world, n, r, j, bufs[r][j], want[j])
					}
				}
			}
			for _, g := range groups {
				g.Close()
			}
		}
	}
}

// The trainer's averaging all-reduce leaves every rank holding
// ringOrderSum·(1/d), bit for bit: each chunk's owner scales its final sum
// once and the all-gather ships those bits — what scaling the plain sum on
// every rank afterwards computed.
func TestAveragedAllReduceMatchesRingOrderSum(t *testing.T) {
	rng := tensor.NewRNG(13)
	for _, world := range []int{2, 3, 4} {
		for _, n := range []int{0, 1, 7, 1000, 4096} {
			groups := joinWorld(t, world, 10*time.Second)
			bufs := make([][]float32, world)
			for r := range bufs {
				bufs[r] = make([]float32, n)
				for j := range bufs[r] {
					bufs[r][j] = rng.NormFloat32()
				}
			}
			sum := ringOrderSum(bufs)
			inv := 1 / float32(world)
			runCollective(t, groups, func(g *Group) error { return g.allReduce(42, bufs[g.Rank()], inv) })
			for r := range bufs {
				for j := range bufs[r] {
					if want := sum[j] * inv; math.Float32bits(bufs[r][j]) != math.Float32bits(want) {
						t.Fatalf("world=%d n=%d rank %d elem %d: averaged all-reduce %v, ring-order sum·(1/%d) %v",
							world, n, r, j, bufs[r][j], world, want)
					}
				}
			}
			for _, g := range groups {
				g.Close()
			}
		}
	}
}

// At world ≥ 2 NewTrainer makes every gradient a view of the bucket
// buffer at its offset — values carried over, capacity ending at its own
// window — so ZeroGrads clears the whole buffer. At world 1 the gradients
// are left alone.
func TestTrainerGradsAliasBuckets(t *testing.T) {
	for _, world := range []int{1, 2} {
		m, err := model.New(model.Tiny(), 7)
		if err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(5)
		prior, grads := map[*nn.Param]*tensor.Tensor{}, map[*nn.Param]*tensor.Tensor{}
		for _, p := range m.Params() {
			p.Grad.FillUniform(rng, -1, 1)
			prior[p], grads[p] = p.Grad.Clone(), p.Grad
		}
		tr := NewTrainer(joinWorld(t, world, 10*time.Second)[0], m, 7, 32*1024, true, 0.01)
		if world == 1 {
			for _, p := range m.Params() {
				if p.Grad != grads[p] {
					t.Fatalf("world 1: %s's Grad was rebound", p.Name)
				}
			}
			continue
		}
		flat := tr.Plan().Flat
		for _, b := range tr.Plan().List {
			off := b.Off
			for _, p := range b.Params {
				g := p.Grad.Data()
				if len(g) != p.Size() || cap(g) != len(g) || &g[0] != &flat[off] {
					t.Fatalf("%s: Grad (len %d cap %d) is not flat[%d:%d]", p.Name, len(g), cap(g), off, off+p.Size())
				}
				if !tensor.SameShape(p.Grad, p.Value) {
					t.Fatalf("%s: Grad shape %v, Value shape %v", p.Name, p.Grad.Shape(), p.Value.Shape())
				}
				for j, v := range prior[p].Data() {
					if math.Float32bits(g[j]) != math.Float32bits(v) {
						t.Fatalf("%s[%d]: %v after binding, %v before", p.Name, j, g[j], v)
					}
				}
				off += p.Size()
			}
		}
		m.ZeroGrads()
		for i, v := range flat {
			if v != 0 {
				t.Fatalf("flat[%d] = %v after ZeroGrads", i, v)
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

// serialTwoReplica is the serial reference for world-2 Train: two
// replicas on Train's seeds and data schedule, stepped one after the
// other, each gradient replaced by (g0+g1)·(1/2) before each replica's own
// LAMB step. It returns per-step losses [step][replica] and replica 0.
func serialTwoReplica(t *testing.T, cfg model.Config, seed uint64, steps int) ([][2]float64, *model.BERT) {
	t.Helper()
	var reps [2]*model.BERT
	var ctxs [2]*nn.Ctx
	var opts [2]*optim.LAMB
	for r := range reps {
		m, err := model.New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		reps[r] = m
		ctxs[r] = &nn.Ctx{Prof: profile.New(), RNG: tensor.NewRNG(seed + uint64(r)*7919), Train: true}
		opts[r] = optim.NewLAMB(0.01)
	}
	gen := data.NewGenerator(cfg.Vocab, 0.15, seed+1000003)
	losses := make([][2]float64, steps)
	for s := range losses {
		for r, m := range reps {
			losses[s][r] = m.Step(ctxs[r], gen.Next(2, 16))
		}
		p0, p1 := reps[0].Params(), reps[1].Params()
		for i := range p0 {
			g0, g1 := p0[i].Grad.Data(), p1[i].Grad.Data()
			for j := range g0 {
				g0[j] = (g0[j] + g1[j]) * (1 / float32(2))
				g1[j] = g0[j]
			}
		}
		for r, m := range reps {
			opts[r].Step(ctxs[r], m.Params())
			m.ZeroGrads()
		}
	}
	return losses, reps[0]
}

// world=2 loopback training must be bit-identical to the serial
// two-replica data-parallel reference, in per-step losses and final
// parameters, identical across ranks, identical with and without
// overlap, and reproducible run-to-run. world=1 must match plain serial
// training.
func TestTrainWorld2BitwiseMatchesDDPAndSerial(t *testing.T) {
	const seed, steps, bucketBytes = 7, 3, 32 * 1024
	cfg := model.Tiny()
	refLosses, ref := serialTwoReplica(t, cfg, seed, steps)

	resOv, modelsOv := runTrainWorld(t, 2, steps, bucketBytes, true, seed)
	if resOv[0].Buckets < 3 {
		t.Fatalf("expected multiple buckets at %dB, got %d", bucketBytes, resOv[0].Buckets)
	}
	for s := 0; s < steps; s++ {
		for r := 0; r < 2; r++ {
			if got, want := resOv[r].Losses[s], refLosses[s][r]; got != want {
				t.Fatalf("step %d rank %d loss %v, serial replica loss %v", s, r, got, want)
			}
		}
	}
	paramsBitEqual(t, "rank1 vs rank0", modelsOv[1], modelsOv[0])
	paramsBitEqual(t, "distnet vs serial two-replica", modelsOv[0], ref)

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

// stepOnGroups trains one model per rank of groups with NewTrainer for
// steps steps, rank r stepping batch(r) each step, and returns the
// trainers.
func stepOnGroups(t *testing.T, groups []*Group, cfg model.Config, steps int, batch func(r int) *data.Batch) []*Trainer {
	t.Helper()
	trainers := newTrainers(t, groups, cfg)
	for s := 0; s < steps; s++ {
		batches := make([]*data.Batch, len(groups))
		for r := range batches {
			batches[r] = batch(r)
		}
		stepTrainers(t, trainers, batches)
	}
	return trainers
}

// newTrainers builds one trainer per rank of groups on a model of cfg
// (model and dropout seed 7, 32 KiB buckets, overlap on).
func newTrainers(t *testing.T, groups []*Group, cfg model.Config) []*Trainer {
	t.Helper()
	trainers := make([]*Trainer, len(groups))
	for r, g := range groups {
		m, err := model.New(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		trainers[r] = NewTrainer(g, m, 7, 32*1024, true, 0.01)
	}
	return trainers
}

// stepTrainers steps every rank's trainer once on its batch, concurrently.
func stepTrainers(t *testing.T, trainers []*Trainer, batches []*data.Batch) {
	t.Helper()
	groups := make([]*Group, len(trainers))
	for r, tr := range trainers {
		groups[r] = tr.G
	}
	runCollective(t, groups, func(g *Group) error {
		_, _, err := trainers[g.Rank()].Step(batches[g.Rank()])
		return err
	})
}

// Replicas stepping different shards stay bit-identical: every rank
// applies the same averaged gradient with the same LAMB step.
func TestTrainerReplicasStayInSync(t *testing.T) {
	cfg := model.Tiny()
	gen := data.NewGenerator(cfg.Vocab, 0.15, 8)
	trainers := stepOnGroups(t, joinWorld(t, 3, 10*time.Second), cfg, 3,
		func(int) *data.Batch { return gen.Next(2, 16) })
	for r := 1; r < 3; r++ {
		paramsBitEqual(t, fmt.Sprintf("rank %d vs rank 0", r), trainers[r].M, trainers[0].M)
	}
}

// Data-parallel training where every rank steps the SAME batch equals
// world-1 training on that batch: averaging identical gradients is the
// identity (up to the rounding of the sum and the 1/3 scale).
func TestTrainerGradientAveraging(t *testing.T) {
	cfg := model.Tiny()
	cfg.DropProb = 0
	b := data.NewGenerator(cfg.Vocab, 0.15, 9).Next(2, 16)
	same := func(int) *data.Batch { return b }
	single := stepOnGroups(t, joinWorld(t, 1, 10*time.Second), cfg, 1, same)
	dp := stepOnGroups(t, joinWorld(t, 3, 10*time.Second), cfg, 1, same)

	sp, pp := single[0].M.Params(), dp[0].M.Params()
	for i := range sp {
		a, c := sp[i].Value.Data(), pp[i].Value.Data()
		for j := range a {
			if math.Abs(float64(a[j]-c[j])) > 1e-5*math.Max(1, math.Abs(float64(a[j]))) {
				t.Fatalf("param %s[%d]: world 1 %v vs world 3 %v", sp[i].Name, j, a[j], c[j])
			}
		}
	}
}

// One step's ring traffic, summed over the ranks, is the ring all-reduce
// payload of every gradient — 2(d-1)·4 bytes per element, split between
// each bucket's reduce-scatter and the one weight all-gather — plus the
// norm exchange's two float32 slots per tensor moved d-1 times, plus one
// frame header per rank per ring step of each collective.
func TestTrainerCommBytes(t *testing.T) {
	const d = 3
	cfg := model.Tiny()
	gen := data.NewGenerator(cfg.Vocab, 0.15, 10)
	groups := joinWorld(t, d, 10*time.Second)
	var got, want int64
	for _, g := range groups {
		tx, _ := g.WireBytes() // the ring handshake
		got -= tx
	}
	trainers := stepOnGroups(t, groups, cfg, 1, func(int) *data.Batch { return gen.Next(2, 16) })
	for _, g := range groups {
		tx, _ := g.WireBytes()
		got += tx
	}
	plan := trainers[0].Plan()
	want = 2 * (d - 1) * 4 * int64(plan.Elems())
	want += (d - 1) * 4 * 2 * int64(len(plan.Params))
	frames := int64(len(plan.List)) + 2
	want += frames * (d - 1) * d * frameHeaderBytes
	if got != want {
		t.Fatalf("one step moved %d bytes over the ring, want %d", got, want)
	}
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

// TestTrainLeavesGOMAXPROCS: an in-process world-2 Train returns with the
// scheduler as it found it, so every later test of the binary runs at the
// core count its leg set (check.sh's GOMAXPROCS=1 leg included).
func TestTrainLeavesGOMAXPROCS(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	runTrainWorld(t, 2, 2, 0, true, 7)
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Fatalf("GOMAXPROCS %d before Train, %d after", before, after)
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
