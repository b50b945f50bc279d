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
// sequence of (tag, len) collectives. Send and receive proceed
// concurrently (an ephemeral goroutine pushes the outbound chunk while
// the caller blocks on the inbound one) — with large chunks a
// send-then-receive lockstep would deadlock once both directions' kernel
// socket buffers fill.
func (g *Group) AllReduce(tag uint32, buf []float32) error {
	if g.world == 1 {
		return nil
	}
	if err := g.errNow(); err != nil {
		return err
	}
	d, n := g.world, len(buf)
	if cap(g.bounds) < d+1 {
		g.bounds = make([]int, d+1)
	}
	bounds := g.bounds[:d+1]
	for c := 0; c <= d; c++ {
		bounds[c] = c * n / d
	}
	chunk := func(c int) []float32 {
		c = ((c % d) + d) % d
		return buf[bounds[c]:bounds[c+1]]
	}

	// Reduce-scatter: after step s, chunk(rank-s-1) holds the partial sum
	// of s+2 ranks' contributions; after D-1 steps each rank owns one
	// fully reduced chunk.
	for s := 0; s < d-1; s++ {
		seq := uint32(s)
		out := chunk(g.rank - s)
		in := chunk(g.rank - s - 1)
		g.sendAsync(tag, seq, out)
		payload, err := g.prev.readFrame(tag, seq, len(in))
		if err != nil {
			return g.collectFail(tag, countTimeout(deadlineReduce, err))
		}
		decodeSum(in, payload)
		if err := <-g.sendErrCh; err != nil {
			countTimeout(deadlineReduce, err)
			return g.fail(fmt.Errorf("distnet: allreduce tag %#x send: %w", tag, err))
		}
	}
	// All-gather: circulate the reduced chunks.
	for s := 0; s < d-1; s++ {
		seq := uint32(d - 1 + s)
		out := chunk(g.rank + 1 - s)
		in := chunk(g.rank - s)
		g.sendAsync(tag, seq, out)
		payload, err := g.prev.readFrame(tag, seq, len(in))
		if err != nil {
			return g.collectFail(tag, countTimeout(deadlineGather, err))
		}
		decodeCopy(in, payload)
		if err := <-g.sendErrCh; err != nil {
			countTimeout(deadlineGather, err)
			return g.fail(fmt.Errorf("distnet: allreduce tag %#x send: %w", tag, err))
		}
	}
	allreducesTotal.Inc()
	return nil
}

// sendAsync ships one chunk to the ring successor without blocking the
// caller. Exactly one send is in flight per Group; the result is always
// collected from sendErrCh before the next send starts (or before
// returning on a receive error), so the goroutine can never leak and the
// chunk it encodes is never concurrently mutated.
func (g *Group) sendAsync(tag, seq uint32, data []float32) {
	go func() { g.sendErrCh <- g.next.writeFrame(tag, seq, data) }()
}

// collectFail tears the group down after a receive error and reaps the
// in-flight send (which unblocks promptly because fail closed its conn).
func (g *Group) collectFail(tag uint32, err error) error {
	err = g.fail(fmt.Errorf("distnet: allreduce tag %#x recv: %w", tag, err))
	<-g.sendErrCh
	return err
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
