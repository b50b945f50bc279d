package kernels

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Attention is the operand set of the attention core, everything between
// the Q/K/V projections and the output projection. Q, K and V are
// [T, Heads·DHead] row-major; sequence s owns rows Offsets[s]..Offsets[s+1]
// (Offsets ascends from 0 to T; a padded [B, n] batch is 0, n, 2n, …).
// Every (sequence, head) pair is one work item of a single pool region,
// item i being head i%Heads of sequence i/Heads. Item (s, h) owns an
// n_s×n_s block of Probs and Drop, in item order: for a padded batch, the
// [B·h, n, n] score tensor.
type Attention struct {
	Q, K, V      []float32
	Offsets      []int
	Heads, DHead int
	Scale        float32   // applied to every raw score, 1/sqrt(DHead) in BERT
	Causal       bool      // query i sees keys 0..i only
	KeyMask      []float32 // nil, or one additive value per token (0 visible, -1e9 padding)

	// Probs, if set, receives the forward's post-softmax, pre-dropout
	// probabilities, which the backward reads. Drop, if set, is an
	// inverted-dropout mask (DropoutMask) multiplied into the
	// probabilities, and in the backward into their gradient; it needs
	// Probs.
	Probs, Drop []float32
}

// AttentionStages is a region's busy time per stage in nanoseconds,
// summed over its items: the per-head products and
// scale/mask/dropout/softmax. A region handed one overwrites it.
type AttentionStages [2]atomic.Int64

const (
	stageBGEMM = iota
	stageSoftmax
)

// AttentionForward computes the attention core into out ([T, Heads·DHead]).
// Each item forms the n×n scores of its head's Q and K rows, read in place
// at row stride Heads·DHead, in its Probs block (else in a per-worker
// tile), scales, masks and softmaxes each row (scaleMaskSoftmaxRow),
// multiplies the dropout mask into a tile copy, multiplies by V and writes
// the context into the head's columns of out. Both products take route p
// as a BatchedGEMM item does (serial, no epilogue, beta = 0); a strided
// operand packs into the same panels as a contiguous one, and an item
// touches only its own sequence's rows, so the result is bitwise the
// whole-tensor chain it replaced at any worker count, and a sequence's
// output is bitwise the same alone or anywhere in any batch. st, if
// non-nil, gets stage times.
func (p GEMMPath) AttentionForward(pool *Pool, at *Attention, out []float32, st *AttentionStages) {
	if b, maxN := at.check("AttentionForward", st, out); b > 0 {
		p.reserveAttention(pool, b*at.Heads, maxN, at.DHead, maxN*maxN)
		attnBodies.run(pool, b*at.Heads, 1, attnArgs{path: p, at: at, out: out, maxN: maxN, st: st}, attnForwardRange)
	}
}

// AttentionBackward propagates dOut, the gradient of AttentionForward's
// out, into dQ, dK and dV (all [T, Heads·DHead], overwritten) from the
// forward's Probs and Drop. Each item reads its head's dOut, Q, K and V
// columns in place and writes its dQ, dK and dV columns in place; it forms
// dP = dOut·Vᵀ and dV = Pᵀ·dOut with P = Probs × Drop (the forward's
// multiply), takes dP through dropout, the softmax gradient
// (softmaxGradRows) and the scale, then forms dQ = dS·K and dK = dSᵀ·Q:
// the whole-tensor chain item by item, so bitwise it at any worker count.
func (p GEMMPath) AttentionBackward(pool *Pool, at *Attention, dQ, dK, dV, dOut []float32, st *AttentionStages) {
	if at.Probs == nil {
		panic("kernels: AttentionBackward without the forward's saved Probs")
	}
	if b, maxN := at.check("AttentionBackward", st, dOut, dQ, dK, dV); b > 0 {
		p.reserveAttention(pool, b*at.Heads, maxN, at.DHead, 2*maxN*maxN)
		attnBodies.run(pool, b*at.Heads, 1, attnArgs{path: p, at: at, out: dOut, dQ: dQ, dK: dK, dV: dV, maxN: maxN, st: st}, attnBackwardRange)
	}
}

// reserveAttention reserves the scratch that the chunks of an attention
// region over items (sequence, head) pairs hold at once: a chunk's tile of
// tile floats and the buffers of whichever per-head product it runs. Both
// directions' products have the shapes n×n×dHead and n×dHead×n; those of
// the longest sequence, n, are reserved.
func (p GEMMPath) reserveAttention(pool *Pool, items, n, dHead, tile int) {
	pieces := concurrentPieces(pool, items, 1)
	p.reserveNested(pieces, n, n, dHead, tile)
	p.reserveNested(pieces, n, dHead, n, tile)
}

// check validates at and bufs (the call's [T, Heads·DHead] buffers)
// before anything is read or written through them, clears st, and
// returns the sequence count and the longest sequence.
func (at *Attention) check(name string, st *AttentionStages, bufs ...[]float32) (b, maxN int) {
	b = len(at.Offsets) - 1
	bad := b < 0 || at.Offsets[0] != 0 || at.Heads < 1 || at.DHead < 1
	tokens, scores := 0, 0
	for s := 0; !bad && s < b; s++ {
		n := at.Offsets[s+1] - at.Offsets[s]
		bad, tokens = n < 1, at.Offsets[s+1]
		maxN, scores = max(maxN, n), scores+at.Heads*n*n
	}
	t := tokens * at.Heads * at.DHead
	bad = bad || len(at.Q) != t || len(at.K) != t || len(at.V) != t ||
		at.KeyMask != nil && len(at.KeyMask) != tokens || at.Probs != nil && len(at.Probs) != scores ||
		at.Drop != nil && (len(at.Drop) != scores || at.Probs == nil)
	for _, x := range bufs {
		bad = bad || len(x) != t
	}
	if bad {
		panic(fmt.Sprintf("kernels: %s offsets %v, heads %d×%d, q=%d k=%d v=%d, key mask %d, probs %d, drop %d (drop only with probs)",
			name, at.Offsets, at.Heads, at.DHead, len(at.Q), len(at.K), len(at.V), len(at.KeyMask), len(at.Probs), len(at.Drop)))
	}
	for i := 0; st != nil && i < len(st); i++ {
		st[i].Store(0)
	}
	return b, maxN
}

// attnArgs are one region's operands; out is the forward's output or the
// backward's incoming gradient.
type attnArgs struct {
	path       GEMMPath
	at         *Attention
	out        []float32
	dQ, dK, dV []float32
	maxN       int // longest sequence: sizes every worker's scratch
	st         *AttentionStages
}

var attnBodies argsPool[attnArgs]

// attnItem is one item's place in the operands: the offset of its head's
// first element in the [T, Heads·DHead] buffers (its sequence's first row,
// its head's first column), its sequence length, and its blocks of the key
// mask, Probs and Drop (nil where the operand is).
type attnItem struct {
	off, n               int
	keyMask, probs, drop []float32
}

func (s *attnArgs) item(i int) (it attnItem) {
	at := s.at
	seq, blk := i/at.Heads, 0
	for j := 0; j < seq; j++ {
		m := at.Offsets[j+1] - at.Offsets[j]
		blk += at.Heads * m * m
	}
	row0 := at.Offsets[seq]
	it.off, it.n = row0*at.Heads*at.DHead+i%at.Heads*at.DHead, at.Offsets[seq+1]-row0
	blk += i % at.Heads * it.n * it.n
	if at.KeyMask != nil {
		it.keyMask = at.KeyMask[row0 : row0+it.n]
	}
	if at.Probs != nil {
		it.probs = at.Probs[blk : blk+it.n*it.n]
	}
	if at.Drop != nil {
		it.drop = at.Drop[blk : blk+it.n*it.n]
	}
	return it
}

// stageClock sums one chunk's stage times into st at flush; with a nil st
// it reads no clock.
type stageClock struct {
	st   *AttentionStages
	last time.Time
	d    [2]time.Duration
}

// lap charges the time since the previous lap to stage; the first lap
// only starts the clock.
func (c *stageClock) lap(stage int) {
	if c.st != nil {
		now := time.Now()
		if !c.last.IsZero() {
			c.d[stage] += now.Sub(c.last)
		}
		c.last = now
	}
}

func (c *stageClock) flush() {
	for i := 0; c.st != nil && i < len(c.st); i++ {
		c.st[i].Add(int64(c.d[i]))
	}
}

func attnForwardRange(s *attnArgs, lo, hi int) {
	at, dh, d := s.at, s.at.DHead, s.at.Heads*s.at.DHead
	// One n×n scratch tile per claimed chunk.
	buf := getScratch(s.maxN * s.maxN)
	defer putScratch(buf)
	clk := stageClock{st: s.st}
	clk.lap(stageBGEMM)
	for i := lo; i < hi; i++ {
		it := s.item(i)
		n, tile := it.n, (*buf)[:it.n*it.n]
		probs := tile
		if it.probs != nil {
			probs = it.probs
		}
		s.path.run(serial, false, true, n, n, dh, 1, at.Q[it.off:], d, at.K[it.off:], d, nil, 0, nil, probs, n)
		clk.lap(stageBGEMM)
		for r := 0; r < n; r++ {
			scaleMaskSoftmaxRow(probs[r*n:(r+1)*n], it.keyMask, at.Scale, at.Causal, r)
		}
		if it.drop != nil {
			mulRow(tile, probs, it.drop)
			probs = tile
		}
		clk.lap(stageSoftmax)

		s.path.run(serial, false, false, n, dh, n, 1, probs, n, at.V[it.off:], d, nil, 0, nil, s.out[it.off:], d)
		clk.lap(stageBGEMM)
	}
	clk.flush()
}

func attnBackwardRange(s *attnArgs, lo, hi int) {
	at, dh, d := s.at, s.at.DHead, s.at.Heads*s.at.DHead
	// One scratch per claimed chunk: the dropped probabilities and the
	// score gradient (n×n each).
	buf := getScratch(2 * s.maxN * s.maxN)
	defer putScratch(buf)
	clk := stageClock{st: s.st}
	clk.lap(stageBGEMM)
	for i := lo; i < hi; i++ {
		it := s.item(i)
		n, off := it.n, it.off
		probs, dS := it.probs, (*buf)[n*n:2*n*n]
		if it.drop != nil {
			probs = (*buf)[:n*n]
			mulRow(probs, it.probs, it.drop)
			clk.lap(stageSoftmax)
		}

		// dP = dOut·Vᵀ, dV = Pᵀ·dOut.
		s.path.run(serial, false, true, n, n, dh, 1, s.out[off:], d, at.V[off:], d, nil, 0, nil, dS, n)
		s.path.run(serial, true, false, n, dh, n, 1, probs, n, s.out[off:], d, nil, 0, nil, s.dV[off:], d)
		clk.lap(stageBGEMM)

		// Through dropout, softmax and the scale; the mask add has an
		// identity gradient.
		if it.drop != nil {
			mulRow(dS, dS, it.drop)
		}
		softmaxGradRows(dS, dS, it.probs, 0, n, n)
		scaleRow(dS, dS, at.Scale)
		clk.lap(stageSoftmax)

		// dQ = dS·K, dK = dSᵀ·Q.
		s.path.run(serial, false, false, n, dh, n, 1, dS, n, at.K[off:], d, nil, 0, nil, s.dQ[off:], d)
		s.path.run(serial, true, false, n, dh, n, 1, dS, n, at.Q[off:], d, nil, 0, nil, s.dK[off:], d)
		clk.lap(stageBGEMM)
	}
	clk.flush()
}

// scaleMaskSoftmaxRow turns row q of an item's raw scores into attention
// probabilities in place: scale, the additive key mask (nil: none) and a
// row softmax. The product is rounded before the mask add, as the
// Scale-then-add chain did (arm64 would otherwise fuse the two). Causal
// clears the future keys and normalizes the visible prefix: bitwise the
// -1e9 fill over them and a whole-row softmax whenever a visible key
// scores above -1e9+128 (key 0 of a right-padded sequence always does),
// as exp underflows to an exact zero there.
func scaleMaskSoftmaxRow(row, keyMask []float32, s float32, causal bool, q int) {
	if causal {
		clear(row[q+1:])
		row = row[:q+1]
	}
	if keyMask != nil {
		keyMask = keyMask[:len(row)]
		for i := range row {
			row[i] = float32(s*row[i]) + keyMask[i]
		}
	} else {
		for i := range row {
			row[i] *= s
		}
	}
	softmaxRow(row, row)
}
