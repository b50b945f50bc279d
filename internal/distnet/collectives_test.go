package distnet

import (
	"math"
	"sync"
	"testing"
	"time"
)

// runCollective issues f concurrently on every rank and fails on error.
func runCollective(t *testing.T, groups []*Group, f func(g *Group) error) {
	t.Helper()
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for r := range groups {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = f(groups[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// paramBounds builds an uneven, tensor-aligned partition of n elements.
func unevenBounds(world, n int) []int {
	bounds := make([]int, world+1)
	for c := 1; c < world; c++ {
		// Deliberately uneven: first chunks smaller.
		bounds[c] = c * n / (world + 1)
	}
	bounds[world] = n
	return bounds
}

func TestReduceScatterOwnChunkMatchesSum(t *testing.T) {
	for _, world := range []int{2, 3} {
		groups := joinWorld(t, world, 5*time.Second)
		const n = 103
		bounds := unevenBounds(world, n)
		bufs := make([][]float32, world)
		for r := range bufs {
			bufs[r] = make([]float32, n)
			for i := range bufs[r] {
				// Small integers: float addition is exact in any order, so
				// the expected sums hold at any world size.
				bufs[r][i] = float32((r+1)*(i%7) - r)
			}
		}
		want := make([]float32, n)
		for i := 0; i < n; i++ {
			for r := 0; r < world; r++ {
				want[i] += float32((r+1)*(i%7) - r)
			}
		}
		runCollective(t, groups, func(g *Group) error {
			return g.reduceScatter(0x1001, bufs[g.Rank()], bounds, 1)
		})
		for r := 0; r < world; r++ {
			for i := bounds[r]; i < bounds[r+1]; i++ {
				if bufs[r][i] != want[i] {
					t.Fatalf("world %d rank %d elem %d: %v, want %v", world, r, i, bufs[r][i], want[i])
				}
			}
		}
	}
}

func TestAllGatherDistributesEveryChunk(t *testing.T) {
	for _, world := range []int{2, 3} {
		groups := joinWorld(t, world, 5*time.Second)
		const n = 77
		bounds := unevenBounds(world, n)
		bufs := make([][]float32, world)
		for r := range bufs {
			bufs[r] = make([]float32, n)
			for i := bounds[r]; i < bounds[r+1]; i++ {
				bufs[r][i] = float32(100*r) + float32(i)*0.5
			}
		}
		runCollective(t, groups, func(g *Group) error {
			return g.AllGather(0x1002, bufs[g.Rank()], bounds)
		})
		for r := 0; r < world; r++ {
			for c := 0; c < world; c++ {
				for i := bounds[c]; i < bounds[c+1]; i++ {
					want := float32(100*c) + float32(i)*0.5
					if math.Float32bits(bufs[r][i]) != math.Float32bits(want) {
						t.Fatalf("world %d rank %d chunk %d elem %d: %v, want %v", world, r, c, i, bufs[r][i], want)
					}
				}
			}
		}
	}
}

// TestReduceScatterAllGatherComposesToAllReduce pins the ZeRO-1 update
// path's transport at world 2: reduce-scatter + all-gather over the same
// bounds must leave every rank bitwise identical to one AllReduce — each
// element is the same single two-operand float addition, copied verbatim
// on the gather.
func TestReduceScatterAllGatherComposesToAllReduce(t *testing.T) {
	const world, n = 2, 91
	groups := joinWorld(t, world, 5*time.Second)
	bounds := unevenBounds(world, n)

	mk := func(r int) []float32 {
		buf := make([]float32, n)
		for i := range buf {
			buf[i] = float32(math.Sin(float64(i*(r+3)))) * 1.7
		}
		return buf
	}
	composed := [][]float32{mk(0), mk(1)}
	reference := [][]float32{mk(0), mk(1)}

	runCollective(t, groups, func(g *Group) error {
		r := g.Rank()
		if err := g.reduceScatter(0x2001, composed[r], bounds, 1); err != nil {
			return err
		}
		return g.AllGather(0x2002, composed[r], bounds)
	})
	runCollective(t, groups, func(g *Group) error {
		return g.AllReduce(0x2003, reference[g.Rank()])
	})

	for r := 0; r < world; r++ {
		for i := 0; i < n; i++ {
			if math.Float32bits(composed[r][i]) != math.Float32bits(reference[r][i]) {
				t.Fatalf("rank %d elem %d: composed %v != allreduce %v", r, i, composed[r][i], reference[r][i])
			}
		}
	}
}

// TestCollectivesAllocFree: a steady-state collective at world 2
// allocates nothing — no goroutine per frame, no encode buffer, no
// growing receive scratch. testing.AllocsPerRun reads the process-wide
// malloc count, so the peer rank's allocations count too; it runs on a
// long-lived goroutine driven over channels, which allocate nothing.
func TestCollectivesAllocFree(t *testing.T) {
	groups := joinWorld(t, 2, 10*time.Second)
	const n = 3 * pieceElems // several receive pieces per chunk
	bounds := unevenBounds(2, n)
	bufs := [][]float32{make([]float32, n), make([]float32, n)}
	ops := []struct {
		name string
		op   func(g *Group) error
	}{
		{"AllReduce", func(g *Group) error { return g.AllReduce(1, bufs[g.Rank()]) }},
		{"averaging allReduce", func(g *Group) error { return g.allReduce(2, bufs[g.Rank()], 0.5) }},
		{"ReduceScatter", func(g *Group) error { return g.reduceScatter(3, bufs[g.Rank()], bounds, 1) }},
		{"AllGather", func(g *Group) error { return g.AllGather(4, bufs[g.Rank()], bounds) }},
	}
	for _, o := range ops {
		start, done := make(chan struct{}), make(chan error)
		go func() {
			for range start {
				done <- o.op(groups[1])
			}
		}()
		run := func() {
			start <- struct{}{}
			err := o.op(groups[0])
			if peerErr := <-done; err == nil {
				err = peerErr
			}
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
		}
		run() // the receive scratch grows here, once
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: %v allocations per collective at world 2, want 0", o.name, allocs)
		}
		close(start)
	}
}

// Close returns only once the group's sender goroutine has exited: none
// outlives its group.
func TestCloseStopsSender(t *testing.T) {
	for _, g := range joinWorld(t, 2, 5*time.Second) {
		g.Close()
		select {
		case <-g.senderDone:
		default:
			t.Fatalf("rank %d: Close returned with the sender still running", g.Rank())
		}
	}
}

func TestCollectivesRejectBadBounds(t *testing.T) {
	groups := joinWorld(t, 2, 5*time.Second)
	buf := make([]float32, 10)
	cases := [][]int{
		{0, 10},        // too few entries
		{0, 4, 8},      // does not span the buffer
		{1, 5, 10},     // does not start at 0
		{0, 8, 10, 10}, // too many entries
	}
	for _, bounds := range cases {
		if err := groups[0].reduceScatter(0x3001, buf, bounds, 1); err == nil {
			t.Fatalf("ReduceScatter accepted bad bounds %v", bounds)
		}
		if err := groups[0].AllGather(0x3002, buf, bounds); err == nil {
			t.Fatalf("AllGather accepted bad bounds %v", bounds)
		}
	}
}
