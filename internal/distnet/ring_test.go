package distnet

import (
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/tensor"
)

// randomBuffers returns world buffers of n uniform draws in [-0.5, 0.5)
// and their element-wise sum in float64.
func randomBuffers(r *tensor.RNG, world, n int) ([][]float32, []float64) {
	bufs := make([][]float32, world)
	want := make([]float64, n)
	for i := range bufs {
		bufs[i] = make([]float32, n)
		for j := range bufs[i] {
			v := r.Float32() - 0.5
			bufs[i][j] = v
			want[j] += float64(v)
		}
	}
	return bufs, want
}

func TestRingAllReduceSumsCorrectly(t *testing.T) {
	r := tensor.NewRNG(1)
	for _, d := range []int{2, 3, 4, 8} {
		groups := joinWorld(t, d, 10*time.Second)
		for _, n := range []int{1, 7, 64, 1000} {
			bufs, want := randomBuffers(r, d, n)
			allReduceAll(t, groups, uint32(n), bufs)
			for i := range bufs {
				for j := range bufs[i] {
					if math.Abs(float64(bufs[i][j])-want[j]) > 1e-4 {
						t.Fatalf("d=%d n=%d rank %d elem %d: got %v want %v",
							d, n, i, j, bufs[i][j], want[j])
					}
				}
			}
		}
	}
}

func TestRingAllReduceBitIdenticalAcrossRanks(t *testing.T) {
	const d, n = 5, 333
	bufs, _ := randomBuffers(tensor.NewRNG(2), d, n)
	allReduceAll(t, joinWorld(t, d, 10*time.Second), 1, bufs)
	for i := 1; i < d; i++ {
		for j := 0; j < n; j++ {
			if bufs[i][j] != bufs[0][j] {
				t.Fatalf("rank %d diverges from rank 0 at %d", i, j)
			}
		}
	}
}

func TestRingAllReduceEdgeCases(t *testing.T) {
	// Single participant: identity.
	one := [][]float32{{1, 2, 3}}
	allReduceAll(t, joinWorld(t, 1, 10*time.Second), 1, one)
	if one[0][0] != 1 || one[0][2] != 3 {
		t.Fatal("single-rank allreduce must be identity")
	}
	// Empty buffers.
	allReduceAll(t, joinWorld(t, 2, 10*time.Second), 1, [][]float32{{}, {}})
	// More ranks than elements (some chunks empty).
	small := [][]float32{{1}, {2}, {3}, {4}}
	allReduceAll(t, joinWorld(t, 4, 10*time.Second), 1, small)
	for i := range small {
		if small[i][0] != 10 {
			t.Fatalf("rank %d got %v, want 10", i, small[i][0])
		}
	}
}

// Property: allreduce of constant buffers yields d·c everywhere.
func TestRingAllReduceConstantProperty(t *testing.T) {
	worlds := map[int][]*Group{}
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		d := 2 + r.Intn(6)
		n := 1 + r.Intn(50)
		c := r.Float32()
		if worlds[d] == nil {
			worlds[d] = joinWorld(t, d, 10*time.Second)
		}
		bufs := make([][]float32, d)
		for i := range bufs {
			bufs[i] = make([]float32, n)
			for j := range bufs[i] {
				bufs[i][j] = c
			}
		}
		allReduceAll(t, worlds[d], 1, bufs)
		want := float64(d) * float64(c)
		for i := range bufs {
			for j := range bufs[i] {
				if math.Abs(float64(bufs[i][j])-want) > 1e-4*math.Max(1, math.Abs(want)) {
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

// A group reused across collectives must be bit-identical to a fresh
// group joined for one collective.
func TestRingReuseMatchesOneShot(t *testing.T) {
	r := tensor.NewRNG(3)
	const d, n = 4, 517
	reused := joinWorld(t, d, 10*time.Second)
	for trial := 0; trial < 3; trial++ {
		a, _ := randomBuffers(r, d, n)
		b := make([][]float32, d)
		for i := range a {
			b[i] = append([]float32(nil), a[i]...)
		}
		allReduceAll(t, reused, uint32(trial), a)
		fresh := joinWorld(t, d, 10*time.Second)
		allReduceAll(t, fresh, 0, b)
		for _, g := range fresh {
			g.Close()
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("trial %d rank %d elem %d: reused %v vs one-shot %v",
						trial, i, j, a[i][j], b[i][j])
				}
			}
		}
	}
}

// Each rank sends 2·(d-1) chunks of n/d elements: 2·(d-1)/d·n·4 payload
// bytes plus one frame header per chunk. A single rank sends nothing.
func TestBytesMoved(t *testing.T) {
	one := joinWorld(t, 1, 10*time.Second)
	allReduceAll(t, one, 1, [][]float32{make([]float32, 1000)})
	if tx, rx := one[0].WireBytes(); tx != 0 || rx != 0 {
		t.Fatalf("single rank moved tx=%d rx=%d bytes", tx, rx)
	}

	const d, n = 4, 1000
	groups := joinWorld(t, d, 10*time.Second)
	before := make([]int64, d)
	for r, g := range groups {
		before[r], _ = g.WireBytes() // the ring handshake
	}
	bufs := make([][]float32, d)
	for r := range bufs {
		bufs[r] = make([]float32, n)
	}
	allReduceAll(t, groups, 1, bufs)
	for r, g := range groups {
		tx, _ := g.WireBytes()
		if got, want := tx-before[r], int64(2*3*1000+2*(d-1)*frameHeaderBytes); got != want {
			t.Fatalf("rank %d sent %d bytes, want %d", r, got, want)
		}
	}
}

func TestTrainerLossDecreases(t *testing.T) {
	cfg := model.Tiny()
	cfg.DropProb = 0
	gen := data.NewGenerator(cfg.Vocab, 0.15, 12)
	batches := []*data.Batch{gen.Next(2, 16), gen.Next(2, 16)}
	groups := joinWorld(t, 2, 10*time.Second)
	trainers := make([]*Trainer, len(groups))
	for r, g := range groups {
		m, err := model.New(cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		trainers[r] = NewTrainer(g, m, 11, 32*1024, true, 0.01)
	}
	losses := make([]float64, len(groups))
	var first, last float64
	for i := 0; i < 6; i++ {
		runCollective(t, groups, func(g *Group) error {
			loss, _, err := trainers[g.Rank()].Step(batches[g.Rank()])
			losses[g.Rank()] = loss
			return err
		})
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

// BenchmarkStepExchange times one dist_w2 step's exchange with no compute
// running: every 128 KiB bucket of bench's mid4 model (4 layers, d=256,
// vocab 8192) reduce-scattered and averaged over a world-2 loopback ring
// in Trainer.commLoop's order, then the weights all-gathered over the
// ownership bounds ("ring"; the norm exchange's 624 bytes are left out),
// against the raw TCP floor ("tcp"): the same bytes per rank streamed each
// way over one loopback socket pair, with no framing, lockstep, fold or
// copy.
//
//	go test -run xxx -bench StepExchange -benchtime 50x ./internal/distnet/
func BenchmarkStepExchange(b *testing.B) {
	m, err := model.New(model.Config{Vocab: 8192, MaxPos: 128, NumLayers: 4, DModel: 256, Heads: 4, DFF: 1024}, 1)
	if err != nil {
		b.Fatal(err)
	}
	plan := PlanBuckets(m.GradGroups(), 128<<10)
	plan.bind(2)
	// each runs f concurrently once per index and fails b on any error.
	each := func(b *testing.B, n int, f func(i int) error) {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() { defer wg.Done(); errs[i] = f(i) }()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ring", func(b *testing.B) {
		groups, err := JoinLoopback(2, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			for _, g := range groups {
				g.Close()
			}
		}()
		flats := [][]float32{make([]float32, plan.Elems()), make([]float32, plan.Elems())}
		weights := [][]float32{make([]float32, plan.Elems()), make([]float32, plan.Elems())}
		b.SetBytes(4 * int64(plan.Elems()))
		for i := 0; i < b.N; i++ {
			each(b, 2, func(r int) error {
				for k, bk := range plan.List {
					if err := groups[r].reduceScatter(uint32(k), flats[r][bk.Off:bk.Off+bk.Len], bk.Bounds, 0.5); err != nil {
						return err
					}
				}
				return groups[r].AllGather(uint32(len(plan.List)), weights[r], plan.Own)
			})
		}
	})
	b.Run("tcp", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		c0, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c0.Close()
		c1, err := ln.Accept()
		if err != nil {
			b.Fatal(err)
		}
		defer c1.Close()
		ends := []net.Conn{c0, c1, c1, c0} // writer, reader per direction
		bufs := make([][]byte, 4)
		for i := range bufs {
			bufs[i] = make([]byte, 4*plan.Elems())
		}
		b.SetBytes(4 * int64(plan.Elems()))
		for i := 0; i < b.N; i++ {
			each(b, 4, func(e int) error {
				for _, bk := range plan.List {
					chunk := bufs[e][4*bk.Off : 4*(bk.Off+bk.Len)]
					var err error
					if e%2 == 0 {
						_, err = ends[e].Write(chunk)
					} else {
						_, err = io.ReadFull(ends[e], chunk)
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
		}
	})
}
