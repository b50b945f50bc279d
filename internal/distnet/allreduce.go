package distnet

import (
	"fmt"
	"time"
)

// AllReduce sums buf element-wise across all ranks in place, using the
// bandwidth-optimal ring algorithm over the persistent TCP streams:
// D-1 reduce-scatter steps (each rank accumulates one chunk) followed by
// D-1 all-gather steps (the reduced chunks circulate). Chunk c covers
// [c·n/D, (c+1)·n/D) and is folded in ring order starting at its owner:
// acc = x_c, then acc = x_{c+k mod D} + acc for k = 1..D-1 — the serial
// reference the parity tests pin every rank's result to, bit for bit.
//
// tag identifies this collective; every rank must issue the same
// sequence of (tag, len) collectives.
func (g *Group) AllReduce(tag uint32, buf []float32) error { return g.allReduce(tag, buf, 1) }

// allReduce is AllReduce with each chunk's owner computing
// float32(acc+recv)·scale on its last reduce-scatter step, once; the
// all-gather ships those bits. The trainer passes 1/world: the
// data-parallel average the serial two-replica reference applies.
func (g *Group) allReduce(tag uint32, buf []float32, scale float32) error {
	if g.world == 1 {
		return nil
	}
	d, n := g.world, len(buf)
	for c := range g.bounds {
		g.bounds[c] = c * n / d
	}
	// Reduce-scatter: after step s, chunk(rank-s-1) holds the partial sum
	// of s+2 ranks' contributions; after D-1 steps each rank owns one
	// fully reduced chunk, chunk(rank+1). All-gather circulates them.
	if err := g.ring(tag, 0, buf, g.bounds, g.rank, scale); err != nil {
		return err
	}
	if err := g.ring(tag, uint32(d-1), buf, g.bounds, g.rank+1, 0); err != nil {
		return err
	}
	allreducesTotal.Inc()
	return nil
}

// ring runs the D-1 steps of one ring phase over buf's chunks, the ring
// loop of every collective. Step s (seq0+s) hands chunk(first-s) to the
// sender goroutine while receiving chunk(first-s-1) (conn.readData):
// scale 0 copies it in (all-gather), else it is summed in with the final
// step times scale (reduce-scatter). Send and receive overlap — a lockstep
// deadlocks once both directions' socket buffers fill — and each send is
// reaped before its step ends, so buf comes back with no write in flight.
func (g *Group) ring(tag, seq0 uint32, buf []float32, bounds []int, first int, scale float32) error {
	if err := g.errNow(); err != nil {
		return err
	}
	phase, deadline := "reduce-scatter", deadlineReduce
	if scale == 0 {
		phase, deadline = "all-gather", deadlineGather
	}
	d := g.world
	chunk := func(c int) []float32 {
		c = ((c % d) + d) % d
		return buf[bounds[c]:bounds[c+1]]
	}
	for s := 0; s < d-1; s++ {
		seq, sc := seq0+uint32(s), scale
		if sc != 0 && s < d-2 {
			sc = 1 // plain sums until the chunk owner's final step
		}
		g.sends <- sendReq{tag, seq, chunk(first - s)}
		if err := g.prev.readData(tag, seq, chunk(first-s-1), sc); err != nil {
			// fail closes the conns, so the in-flight send unblocks promptly.
			err = g.fail(fmt.Errorf("distnet: %s tag %#x seq %d recv: %w", phase, tag, seq, countTimeout(deadline, err)))
			g.reap()
			return err
		}
		if err := g.reap(); err != nil {
			return g.fail(fmt.Errorf("distnet: %s tag %#x seq %d send: %w", phase, tag, seq, countTimeout(deadline, err)))
		}
	}
	return nil
}

// sendReq is one data frame for the sender goroutine.
type sendReq struct {
	tag, seq uint32
	data     []float32
}

// sender is the group's one long-lived send goroutine, started by Join
// and stopped by Close or fail: at most one data frame in flight to the
// ring successor, its result reported on sendErr.
func (g *Group) sender() {
	defer close(g.senderDone)
	for {
		select {
		case r := <-g.sends:
			g.sendErr <- g.next.writeRaw(r.tag, r.seq, g.next.wireBytes(r.data))
		case <-g.quit:
			return
		}
	}
}

// reap waits for the in-flight send's result; an exited sender has none.
func (g *Group) reap() error {
	select {
	case err := <-g.sendErr:
		return err
	case <-g.senderDone:
		return errClosed
	}
}

// ProbeLink measures the effective ring link by timing two collectives:
// a world-sized all-reduce (one element per chunk, pure per-step latency)
// and an elems-sized one (bandwidth-dominated). It returns the derived
// point-to-point bandwidth in bytes/s and per-step latency — the Link
// parameters the analytical model (internal/dist) needs to predict this
// group's communication time. Collective: every rank must call it at the
// same point with the same arguments.
func (g *Group) ProbeLink(elems, rounds int) (bw float64, lat time.Duration, err error) {
	if g.world == 1 {
		return 0, 0, nil
	}
	if rounds < 1 {
		rounds = 1
	}
	small := make([]float32, g.world)
	big := make([]float32, elems)
	tag := uint32(tagProbe)
	// Warm-up: grow conn scratches and touch every code path once.
	if err := g.AllReduce(tag, big); err != nil {
		return 0, 0, err
	}
	tag++
	tSmall, tBig := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < rounds; r++ {
		if err := g.Barrier(); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if err := g.AllReduce(tag, small); err != nil {
			return 0, 0, err
		}
		tag++
		if d := time.Since(t0); d < tSmall {
			tSmall = d
		}
		if err := g.Barrier(); err != nil {
			return 0, 0, err
		}
		t0 = time.Now()
		if err := g.AllReduce(tag, big); err != nil {
			return 0, 0, err
		}
		tag++
		if d := time.Since(t0); d < tBig {
			tBig = d
		}
	}
	steps := 2 * (g.world - 1)
	lat = tSmall / time.Duration(steps)
	vol := 2 * float64(g.world-1) / float64(g.world) * float64(elems) * 4 // bytes on the wire per rank
	net := tBig - tSmall
	if net <= 0 {
		net = tBig // degenerate timer resolution; bandwidth is then a lower bound
	}
	return vol / net.Seconds(), lat, nil
}
