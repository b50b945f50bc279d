package kernels

import (
	"fmt"
	"sync"
)

// AttentionRagged computes multi-head self-attention over a padding-free
// batch: q, k, v and out are [T, heads·dHead] row-major, and sequence s
// owns rows offsets[s]..offsets[s+1] of each (len(offsets) = B+1,
// ascending from 0 to T). Every (sequence, head) pair is one work item of
// a single pool region: gather that head's Q/K/V rows, form the n×n
// scores in a per-worker scratch tile, scale and softmax each row (with
// causal, query i sees keys 0..i), multiply by V and write the result
// straight into the head's columns of out — so no score tensor, no
// split/merge pass and no key-padding mask exist, and the tile is consumed
// while it is still in cache.
//
// Both products take route p the way BatchedGEMM's per-matrix products do
// (serial, no epilogue), and an item reads and writes only its own
// sequence's rows: a sequence's output is bitwise the same alone, in any
// batch, at any position in it and at any worker count.
func (p GEMMPath) AttentionRagged(out, q, k, v []float32, offsets []int, heads, dHead int, scale float32, causal bool) {
	d := heads * dHead
	b := len(offsets) - 1
	if b < 0 || offsets[0] != 0 || heads < 1 || dHead < 1 {
		panic(fmt.Sprintf("kernels: AttentionRagged offsets %v, heads=%d dHead=%d", offsets, heads, dHead))
	}
	maxN := 0
	for s := 0; s < b; s++ {
		n := offsets[s+1] - offsets[s]
		if n < 1 {
			panic(fmt.Sprintf("kernels: AttentionRagged sequence %d has %d tokens", s, n))
		}
		maxN = max(maxN, n)
	}
	if t := offsets[b] * d; len(q) != t || len(k) != t || len(v) != t || len(out) != t {
		panic(fmt.Sprintf("kernels: AttentionRagged buffers q=%d k=%d v=%d out=%d, want %d tokens × %d", len(q), len(k), len(v), len(out), offsets[b], d))
	}
	if b == 0 {
		return
	}
	s := raggedAttnPool.Get().(*raggedAttnState)
	s.path = p
	s.out, s.q, s.k, s.v, s.offsets = out, q, k, v, offsets
	s.heads, s.dHead, s.maxN = heads, dHead, maxN
	s.scale, s.causal = scale, causal
	parallelRun(b*heads, 1, s)
	s.out, s.q, s.k, s.v, s.offsets = nil, nil, nil, nil, nil
	raggedAttnPool.Put(s)
}

// raggedAttnState is the pooled parallel-region body of AttentionRagged:
// item i is head i%heads of sequence i/heads.
type raggedAttnState struct {
	path         GEMMPath
	out, q, k, v []float32
	offsets      []int
	heads, dHead int
	maxN         int // longest sequence: sizes every worker's scratch
	scale        float32
	causal       bool
}

var raggedAttnPool = sync.Pool{New: func() any { return new(raggedAttnState) }}

func (s *raggedAttnState) runRange(lo, hi int) {
	dh, d := s.dHead, s.heads*s.dHead
	// One scratch per claimed chunk: the head's Q, K, V and context rows
	// (n×dHead each) and its n×n score tile.
	buf := getScratch(4*s.maxN*dh + s.maxN*s.maxN)
	defer putScratch(buf)
	for i := lo; i < hi; i++ {
		row0 := s.offsets[i/s.heads]
		n := s.offsets[i/s.heads+1] - row0
		col := (i % s.heads) * dh
		qh, kh, vh, ch := (*buf)[:n*dh], (*buf)[n*dh:2*n*dh], (*buf)[2*n*dh:3*n*dh], (*buf)[3*n*dh:4*n*dh]
		sc := (*buf)[4*n*dh : 4*n*dh+n*n]
		for r := 0; r < n; r++ {
			src := (row0+r)*d + col
			copy(qh[r*dh:(r+1)*dh], s.q[src:])
			copy(kh[r*dh:(r+1)*dh], s.k[src:])
			copy(vh[r*dh:(r+1)*dh], s.v[src:])
		}

		clear(sc)
		s.path.run(false, true, n, n, dh, 1, qh, kh, nil, nil, sc, false)
		for r := 0; r < n; r++ {
			row := sc[r*n : (r+1)*n]
			for j := range row {
				row[j] *= s.scale
			}
			if s.causal {
				// Bitwise what writing -1e9 over the future keys and
				// normalizing the whole row gives: exp underflows to an
				// exact zero there.
				clear(row[r+1:])
				row = row[:r+1]
			}
			softmaxRow(row, row)
		}

		clear(ch)
		s.path.run(false, false, n, dh, n, 1, sc, vh, nil, nil, ch, false)
		for r := 0; r < n; r++ {
			copy(s.out[(row0+r)*d+col:], ch[r*dh:(r+1)*dh])
		}
	}
}
