package ddp

import (
	"math"
	"testing"
	"testing/quick"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/tensor"
)

func TestRingAllReduceSumsCorrectly(t *testing.T) {
	r := tensor.NewRNG(1)
	for _, d := range []int{2, 3, 4, 8} {
		for _, n := range []int{1, 7, 64, 1000} {
			buffers := make([][]float32, d)
			want := make([]float64, n)
			for i := range buffers {
				buffers[i] = make([]float32, n)
				for j := range buffers[i] {
					v := r.Float32() - 0.5
					buffers[i][j] = v
					want[j] += float64(v)
				}
			}
			RingAllReduce(buffers)
			for i := range buffers {
				for j := range buffers[i] {
					if math.Abs(float64(buffers[i][j])-want[j]) > 1e-4 {
						t.Fatalf("d=%d n=%d rank %d elem %d: got %v want %v",
							d, n, i, j, buffers[i][j], want[j])
					}
				}
			}
		}
	}
}

func TestRingAllReduceBitIdenticalAcrossRanks(t *testing.T) {
	r := tensor.NewRNG(2)
	const d, n = 5, 333
	buffers := make([][]float32, d)
	for i := range buffers {
		buffers[i] = make([]float32, n)
		for j := range buffers[i] {
			buffers[i][j] = r.Float32()
		}
	}
	RingAllReduce(buffers)
	for i := 1; i < d; i++ {
		for j := 0; j < n; j++ {
			if buffers[i][j] != buffers[0][j] {
				t.Fatalf("rank %d diverges from rank 0 at %d", i, j)
			}
		}
	}
}

func TestRingAllReduceEdgeCases(t *testing.T) {
	// Single participant: identity.
	one := [][]float32{{1, 2, 3}}
	RingAllReduce(one)
	if one[0][0] != 1 || one[0][2] != 3 {
		t.Fatal("single-rank allreduce must be identity")
	}
	// Empty buffers.
	RingAllReduce([][]float32{{}, {}})
	RingAllReduce(nil)
	// More ranks than elements (some chunks empty).
	small := [][]float32{{1}, {2}, {3}, {4}}
	RingAllReduce(small)
	for i := range small {
		if small[i][0] != 10 {
			t.Fatalf("rank %d got %v, want 10", i, small[i][0])
		}
	}
}

func TestRingAllReduceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	RingAllReduce([][]float32{make([]float32, 4), make([]float32, 5)})
}

// Property: allreduce of constant buffers yields d·c everywhere.
func TestRingAllReduceConstantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		d := 2 + r.Intn(6)
		n := 1 + r.Intn(50)
		c := r.Float32()
		buffers := make([][]float32, d)
		for i := range buffers {
			buffers[i] = make([]float32, n)
			for j := range buffers[i] {
				buffers[i][j] = c
			}
		}
		RingAllReduce(buffers)
		want := float64(d) * float64(c)
		for i := range buffers {
			for j := range buffers[i] {
				if math.Abs(float64(buffers[i][j])-want) > 1e-4*math.Max(1, math.Abs(want)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A reused Ring must be bit-identical to the one-shot path and reusable
// across calls.
func TestRingReuseMatchesOneShot(t *testing.T) {
	r := tensor.NewRNG(3)
	const d, n = 4, 517
	ring := NewRing(d, n)
	defer ring.Close()
	for trial := 0; trial < 3; trial++ {
		a := make([][]float32, d)
		b := make([][]float32, d)
		for i := range a {
			a[i] = make([]float32, n)
			b[i] = make([]float32, n)
			for j := range a[i] {
				v := r.Float32() - 0.5
				a[i][j] = v
				b[i][j] = v
			}
		}
		ring.AllReduce(a)
		RingAllReduce(b)
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("trial %d rank %d elem %d: ring %v vs one-shot %v",
						trial, i, j, a[i][j], b[i][j])
				}
			}
		}
	}
}

func TestRingSizeMismatchPanics(t *testing.T) {
	ring := NewRing(2, 8)
	defer ring.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("wrong buffer length must panic")
		}
	}()
	ring.AllReduce([][]float32{make([]float32, 8), make([]float32, 9)})
}

// Steady-state AllReduce on a held Ring must not allocate: the per-step
// chunk copies of the old implementation are the regression this guards
// against.
func TestRingAllReduceZeroAllocSteadyState(t *testing.T) {
	const d, n = 4, 4096
	ring := NewRing(d, n)
	defer ring.Close()
	bufs := make([][]float32, d)
	for i := range bufs {
		bufs[i] = make([]float32, n)
		for j := range bufs[i] {
			bufs[i][j] = float32(i + j)
		}
	}
	ring.AllReduce(bufs) // warm up
	if avg := testing.AllocsPerRun(50, func() { ring.AllReduce(bufs) }); avg != 0 {
		t.Fatalf("Ring.AllReduce allocates %v objects/op in steady state, want 0", avg)
	}
}

func TestBytesMoved(t *testing.T) {
	if BytesMoved(1000, 1) != 0 {
		t.Fatal("single rank moves nothing")
	}
	// 2·(d-1)/d·n·4 bytes.
	if got := BytesMoved(1000, 4); got != 2*3*1000 {
		t.Fatalf("BytesMoved = %d", got)
	}
}

func TestTrainerReplicasStayInSync(t *testing.T) {
	cfg := model.Tiny()
	tr, err := NewTrainer(cfg, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ok, where := tr.InSync(); !ok {
		t.Fatalf("replicas differ at init: %s", where)
	}
	gen := data.NewGenerator(cfg.Vocab, 0.15, 8)
	for step := 0; step < 3; step++ {
		batches := []*data.Batch{gen.Next(2, 16), gen.Next(2, 16), gen.Next(2, 16)}
		losses, err := tr.Step(batches)
		if err != nil {
			t.Fatal(err)
		}
		if len(losses) != 3 {
			t.Fatalf("got %d losses", len(losses))
		}
		if ok, where := tr.InSync(); !ok {
			t.Fatalf("replicas diverged after step %d at %s", step, where)
		}
	}
}

func TestTrainerGradientAveraging(t *testing.T) {
	// DP training on D replicas with the SAME batch must produce exactly
	// the gradients (and update) of single-replica training on that
	// batch: averaging D identical gradients is the identity.
	cfg := model.Tiny()
	cfg.DropProb = 0
	gen := data.NewGenerator(cfg.Vocab, 0.15, 9)
	b := gen.Next(2, 16)

	single, err := NewTrainer(cfg, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewTrainer(cfg, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Step([]*data.Batch{b}); err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Step([]*data.Batch{b, b, b}); err != nil {
		t.Fatal(err)
	}

	sp := single.Replicas[0].Params()
	pp := dp.Replicas[0].Params()
	for i := range sp {
		a, c := sp[i].Value.Data(), pp[i].Value.Data()
		for j := range a {
			if math.Abs(float64(a[j]-c[j])) > 1e-5*math.Max(1, math.Abs(float64(a[j]))) {
				t.Fatalf("param %s[%d]: single %v vs DP %v", sp[i].Name, j, a[j], c[j])
			}
		}
	}
}

func TestTrainerLossDecreases(t *testing.T) {
	cfg := model.Tiny()
	cfg.DropProb = 0
	tr, err := NewTrainer(cfg, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(cfg.Vocab, 0.15, 12)
	b0, b1 := gen.Next(2, 16), gen.Next(2, 16)
	var first, last float64
	for i := 0; i < 6; i++ {
		losses, err := tr.Step([]*data.Batch{b0, b1})
		if err != nil {
			t.Fatal(err)
		}
		mean := (losses[0] + losses[1]) / 2
		if i == 0 {
			first = mean
		}
		last = mean
	}
	if last >= first {
		t.Fatalf("DP training loss did not fall: %v -> %v", first, last)
	}
}

func TestTrainerValidation(t *testing.T) {
	if _, err := NewTrainer(model.Tiny(), 0, 1); err == nil {
		t.Fatal("zero replicas must error")
	}
	if _, err := NewTrainer(model.Config{}, 2, 1); err == nil {
		t.Fatal("invalid config must error")
	}
	tr, _ := NewTrainer(model.Tiny(), 2, 1)
	if _, err := tr.Step(nil); err == nil {
		t.Fatal("wrong batch count must error")
	}
}

func TestTrainerCommBytes(t *testing.T) {
	tr, _ := NewTrainer(model.Tiny(), 4, 1)
	want := BytesMoved(gradLen(tr.Replicas[0]), 4)
	if got := tr.CommBytesPerStep(); got != want {
		t.Fatalf("CommBytesPerStep = %d, want %d", got, want)
	}
}
