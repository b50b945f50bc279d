package kernels

import (
	"fmt"
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// splitHeads and mergeHeads are the layout moves the whole-tensor chain
// made around its batched products: [B·n, h·dHead] rows to (B·h)×n×dHead
// matrices and back.
func splitHeads(dst, x []float32, b, n, heads, dHead int) {
	d := heads * dHead
	for t := 0; t < b*n; t++ {
		for h := 0; h < heads; h++ {
			copy(dst[((t/n*heads+h)*n+t%n)*dHead:], x[t*d+h*dHead:t*d+(h+1)*dHead])
		}
	}
}

func mergeHeads(dst, x []float32, b, n, heads, dHead int) {
	d := heads * dHead
	for t := 0; t < b*n; t++ {
		for h := 0; h < heads; h++ {
			src := ((t/n*heads+h)*n + t%n) * dHead
			copy(dst[t*d+h*dHead:t*d+(h+1)*dHead], x[src:src+dHead])
		}
	}
}

// attnChain is the attention core as a chain of whole-tensor kernels over
// a padded [B, n] batch, the way the training forward and backward ran it
// before the one region: split heads, B·h score products, the
// scale/mask/softmax pass, dropout, B·h context products, merge heads, and
// the mirrored backward. The score pass and the softmax gradient run as
// their own oracles, the four-pass scaleMaskSoftmaxSequence and the
// one-row parentSoftmaxGrad, which the deleted whole-tensor kernels
// matched bit for bit. It is AttentionForward's and AttentionBackward's
// bitwise oracle and the other half of BenchmarkAttentionTrain.
type attnChain struct {
	p                 GEMMPath
	pool              *Pool
	b, n, heads, dh   int
	scale             float32
	causal            bool
	keyMask, drop     []float32 // nil: none
	qh, kh, vh        []float32 // split projections
	probs, dropped    []float32 // softmax output, after dropout
	dProbs, dS        []float32
	ctx, dCh, dQh     []float32
	dKh, dVh, scratch []float32
}

func newAttnChain(p GEMMPath, pool *Pool, b, n, heads, dh int, scale float32, causal bool, keyMask, drop []float32) *attnChain {
	sz, sc := b*n*heads*dh, b*heads*n*n
	f := func(n int) []float32 { return make([]float32, n) }
	return &attnChain{p: p, pool: pool, b: b, n: n, heads: heads, dh: dh, scale: scale, causal: causal, keyMask: keyMask, drop: drop,
		qh: f(sz), kh: f(sz), vh: f(sz), probs: f(sc), dropped: f(sc), dProbs: f(sc), dS: f(sc),
		ctx: f(sz), dCh: f(sz), dQh: f(sz), dKh: f(sz), dVh: f(sz), scratch: f(sc)}
}

func (c *attnChain) forward(out, q, k, v []float32) {
	batch, n, dh, st, stS := c.b*c.heads, c.n, c.dh, c.n*c.dh, c.n*c.n
	splitHeads(c.qh, q, c.b, n, c.heads, dh)
	splitHeads(c.kh, k, c.b, n, c.heads, dh)
	splitHeads(c.vh, v, c.b, n, c.heads, dh)
	c.p.BatchedGEMM(c.pool, batch, false, true, n, n, dh, 1, c.qh, st, c.kh, st, 0, c.probs, stS)
	scaleMaskSoftmaxSequence(c.probs, c.probs, c.keyMask, c.scale, c.causal, c.b, c.heads, n)
	probs := c.probs
	if c.drop != nil {
		c.pool.DropoutApply(c.dropped, c.probs, c.drop)
		probs = c.dropped
	}
	c.p.BatchedGEMM(c.pool, batch, false, false, n, dh, n, 1, probs, stS, c.vh, st, 0, c.ctx, st)
	mergeHeads(out, c.ctx, c.b, n, c.heads, dh)
}

func (c *attnChain) backward(dQ, dK, dV, dOut []float32) {
	batch, n, dh, st, stS := c.b*c.heads, c.n, c.dh, c.n*c.dh, c.n*c.n
	splitHeads(c.dCh, dOut, c.b, n, c.heads, dh)
	probs, dAfter := c.probs, c.dProbs
	if c.drop != nil {
		probs, dAfter = c.dropped, c.scratch
	}
	c.p.BatchedGEMM(c.pool, batch, false, true, n, n, dh, 1, c.dCh, st, c.vh, st, 0, c.dProbs, stS)
	c.p.BatchedGEMM(c.pool, batch, true, false, n, dh, n, 1, probs, stS, c.dCh, st, 0, c.dVh, st)
	if c.drop != nil {
		c.pool.DropoutApply(dAfter, c.dProbs, c.drop)
	}
	parentSoftmaxGrad(c.dS, dAfter, c.probs, batch*n, n)
	c.pool.Scale(c.dS, c.dS, c.scale)
	c.p.BatchedGEMM(c.pool, batch, false, false, n, dh, n, 1, c.dS, stS, c.kh, st, 0, c.dQh, st)
	c.p.BatchedGEMM(c.pool, batch, true, false, n, dh, n, 1, c.dS, stS, c.qh, st, 0, c.dKh, st)
	mergeHeads(dQ, c.dQh, c.b, n, c.heads, dh)
	mergeHeads(dK, c.dKh, c.b, n, c.heads, dh)
	mergeHeads(dV, c.dVh, c.b, n, c.heads, dh)
}

// uniformOffsets returns 0, n, 2n, …, b·n.
func uniformOffsets(b, n int) []int {
	offsets := make([]int, b+1)
	for i := range offsets {
		offsets[i] = i * n
	}
	return offsets
}

// paddedKeyMask marks the last min(s, n-1) keys of sequence s as padding,
// so key 0 of every sequence stays visible.
func paddedKeyMask(b, n int) []float32 {
	m := make([]float32, b*n)
	for s := 0; s < b; s++ {
		for k := n - min(s, n-1); k < n; k++ {
			m[s*n+k] = -1e9
		}
	}
	return m
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: region %#08x (%v), chain %#08x (%v)", what, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// TestAttentionMatchesChain: the forward and the backward region compute
// the whole-tensor chain's bits — output, saved probabilities, dQ, dK and
// dV — under every kernel-table entry, on the naive, blocked and auto
// routes, at pool widths 1–3, with and without a padded key mask, causal
// or not, at dropout 0 and 0.1. The train_gemm shape (B 4, h 12, n 128,
// dHead 64) runs one mode per route and width.
func TestAttentionMatchesChain(t *testing.T) {
	type shape struct{ b, h, n, dh int }
	forEachKernel(t, "", func(t *testing.T) {
		for ri, route := range []GEMMPath{GEMMPathNaive, GEMMPathBlocked, GEMMPathAuto} {
			for w := 1; w <= 3; w++ {
				for _, sh := range []shape{{2, 3, 8, 4}, {1, 4, 37, 16}, {3, 2, 1, 8}, {4, 12, 128, 64}} {
					for mode := 0; mode < 8; mode++ {
						masked, causal, dropP := mode&1 != 0, mode&2 != 0, float32(0.1)*float32(mode>>2)
						big := sh.n == 128
						if big && (mode != (ri+w)%8 || raceEnabled && route == GEMMPathNaive) {
							continue
						}
						pool := poolOf(w)
						r := tensor.NewRNG(uint64(100*sh.n + mode))
						sz, sc := sh.b*sh.n*sh.h*sh.dh, sh.b*sh.h*sh.n*sh.n
						q, k, v, dOut := randSlice(r, sz), randSlice(r, sz), randSlice(r, sz), randSlice(r, sz)
						for i := range q {
							q[i] *= 4 // scores of a few units, so softmax rows are not flat
						}
						var keyMask, drop []float32
						if masked {
							keyMask = paddedKeyMask(sh.b, sh.n)
						}
						if dropP > 0 {
							drop = make([]float32, sc)
							pool.DropoutMask(drop, dropP, tensor.NewRNG(7))
						}
						scale := float32(1 / math.Sqrt(float64(sh.dh)))
						id := fmt.Sprintf("%v/w%d/%+v/mask=%v/causal=%v/p=%v", route, w, sh, masked, causal, dropP)

						c := newAttnChain(route, pool, sh.b, sh.n, sh.h, sh.dh, scale, causal, keyMask, drop)
						want, wdQ, wdK, wdV := make([]float32, sz), make([]float32, sz), make([]float32, sz), make([]float32, sz)
						c.forward(want, q, k, v)
						c.backward(wdQ, wdK, wdV, dOut)

						at := &Attention{Q: q, K: k, V: v, Offsets: uniformOffsets(sh.b, sh.n), Heads: sh.h, DHead: sh.dh,
							Scale: scale, Causal: causal, KeyMask: keyMask, Probs: make([]float32, sc), Drop: drop}
						got, dQ, dK, dV := make([]float32, sz), make([]float32, sz), make([]float32, sz), make([]float32, sz)
						route.AttentionForward(pool, at, got, nil)
						route.AttentionBackward(pool, at, dQ, dK, dV, dOut, new(AttentionStages))
						sameBits(t, id+" out", got, want)
						sameBits(t, id+" probs", at.Probs, c.probs)
						sameBits(t, id+" dQ", dQ, wdQ)
						sameBits(t, id+" dK", dK, wdK)
						sameBits(t, id+" dV", dV, wdV)
					}
				}
			}
		}
	})
}

// TestAttentionRaggedMatchesKernelSequence: the evaluation form of the
// region (no mask, no saved probabilities) over a padding-free batch is
// bitwise the chain run per sequence at its own length — on heads wide
// enough for the blocked engine and on ones that take the naive loops,
// causal or not, lengths from 1 up, on one worker and on several, on
// every GEMM route.
func TestAttentionRaggedMatchesKernelSequence(t *testing.T) {
	r := tensor.NewRNG(21)
	offsets := []int{0, 37, 38, 40, 104, 109}
	for _, path := range []GEMMPath{GEMMPathAuto, GEMMPathNaive, GEMMPathBlocked} {
		for _, hd := range [][2]int{{2, 64}, {4, 8}} {
			for _, causal := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					t.Run(fmt.Sprintf("%v/h%dx%d/causal=%v/w%d", path, hd[0], hd[1], causal, workers), func(t *testing.T) {
						pool := poolOf(workers)
						heads, dHead := hd[0], hd[1]
						d := heads * dHead
						size := offsets[len(offsets)-1] * d
						q, k, v := randSlice(r, size), randSlice(r, size), randSlice(r, size)
						got, want := make([]float32, size), make([]float32, size)
						scale := float32(1 / math.Sqrt(float64(dHead)))
						path.AttentionForward(pool, &Attention{Q: q, K: k, V: v, Offsets: offsets, Heads: heads, DHead: dHead, Scale: scale, Causal: causal}, got, nil)
						for s := 1; s < len(offsets); s++ {
							lo, n := offsets[s-1]*d, offsets[s]-offsets[s-1]
							newAttnChain(path, pool, 1, n, heads, dHead, scale, causal, nil, nil).
								forward(want[lo:lo+n*d], q[lo:lo+n*d], k[lo:lo+n*d], v[lo:lo+n*d])
						}
						sameBits(t, "out", got, want)
					})
				}
			}
		}
	}
}

// TestAttentionRaggedZeroAllocSteadyState: the region's state and every
// worker's scratch tile are pooled, forward and backward, with the stage
// clock on and off.
func TestAttentionRaggedZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	pool := poolOf(1)
	r := tensor.NewRNG(22)
	const heads, dHead, b, n = 2, 64, 3, 20
	size := b * n * heads * dHead
	q, k, v, out := randSlice(r, size), randSlice(r, size), randSlice(r, size), make([]float32, size)
	dQ, dK, dV := make([]float32, size), make([]float32, size), make([]float32, size)
	at := &Attention{Q: q, K: k, V: v, Offsets: uniformOffsets(b, n), Heads: heads, DHead: dHead, Scale: 0.125,
		Probs: make([]float32, b*heads*n*n)}
	st := new(AttentionStages)
	step := func() {
		GEMMPathAuto.AttentionForward(pool, at, out, nil)
		GEMMPathAuto.AttentionBackward(pool, at, dQ, dK, dV, out, st)
	}
	step() // warm the pools
	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Errorf("attention region allocates %v per op in steady state, want 0", avg)
	}
}

// TestAttentionRaggedRejectsBadOffsets: malformed offsets, or a mask,
// probability or dropout buffer that does not fit them, panic before
// anything is read or written through them.
func TestAttentionRaggedRejectsBadOffsets(t *testing.T) {
	const heads, dHead = 2, 4
	buf := func(n int) []float32 { return make([]float32, n) }
	x := buf(3 * heads * dHead)
	for name, at := range map[string]Attention{
		"empty":           {},
		"not from zero":   {Offsets: []int{1, 3}},
		"empty sequence":  {Offsets: []int{0, 2, 2, 3}},
		"descending":      {Offsets: []int{0, 3, 2, 3}},
		"past the buffer": {Offsets: []int{0, 2, 4}},
		"short key mask":  {Offsets: []int{0, 3}, KeyMask: buf(2)},
		"short probs":     {Offsets: []int{0, 3}, Probs: buf(heads*9 - 1)},
		"drop alone":      {Offsets: []int{0, 3}, Drop: buf(heads * 9)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			at.Q, at.K, at.V, at.Heads, at.DHead, at.Scale = x, x, x, heads, dHead, 1
			GEMMPathAuto.AttentionForward(nil, &at, buf(len(x)), nil)
		}()
	}
}

// BenchmarkAttentionRaggedShort times the region on one served query of n
// tokens through 4 heads of 64, on a one-worker pool and on the process
// pool. Below n = 16 both per-head products take the naive loops
// (2·n·n·64 < smallGEMMFlops).
func BenchmarkAttentionRaggedShort(b *testing.B) {
	const heads, dHead = 4, 64
	r := tensor.NewRNG(74)
	for _, n := range []int{5, 10, 16, 64} {
		size := n * heads * dHead
		q, k, v, out := randSlice(r, size), randSlice(r, size), randSlice(r, size), make([]float32, size)
		at := &Attention{Q: q, K: k, V: v, Offsets: []int{0, n}, Heads: heads, DHead: dHead, Scale: 0.125}
		for _, pp := range []struct {
			name string
			pool *Pool
		}{{"serial", poolOf(1)}, {"process", nil}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, pp.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					GEMMPathAuto.AttentionForward(pp.pool, at, out, nil)
				}
			})
		}
	}
}

// BenchmarkAttentionTrain times one layer's training attention core,
// forward then backward, with a padded key mask and dropout 0.1 on the
// process pool: the region against the whole-tensor chain it replaced, at
// train_gemm's shape (B 4, h 12, n 128, dHead 64) and at the paper's
// Phase 2 length (B 1, h 12, n 512).
func BenchmarkAttentionTrain(b *testing.B) {
	const heads, dh = 12, 64
	for _, sh := range []struct{ b, n int }{{4, 128}, {1, 512}} {
		r := tensor.NewRNG(75)
		sz, sc := sh.b*sh.n*heads*dh, sh.b*heads*sh.n*sh.n
		q, k, v, dOut := randSlice(r, sz), randSlice(r, sz), randSlice(r, sz), randSlice(r, sz)
		out, dQ, dK, dV := make([]float32, sz), make([]float32, sz), make([]float32, sz), make([]float32, sz)
		keyMask, drop := paddedKeyMask(sh.b, sh.n), make([]float32, sc)
		processPool.DropoutMask(drop, 0.1, tensor.NewRNG(8))
		scale := float32(0.125)
		at := &Attention{Q: q, K: k, V: v, Offsets: uniformOffsets(sh.b, sh.n), Heads: heads, DHead: dh,
			Scale: scale, KeyMask: keyMask, Probs: make([]float32, sc), Drop: drop}
		chain := newAttnChain(GEMMPathAuto, nil, sh.b, sh.n, heads, dh, scale, false, keyMask, drop)
		for _, bc := range []struct {
			name string
			run  func()
		}{
			{"region", func() {
				GEMMPathAuto.AttentionForward(nil, at, out, nil)
				GEMMPathAuto.AttentionBackward(nil, at, dQ, dK, dV, dOut, nil)
			}},
			{"chain", func() {
				chain.forward(out, q, k, v)
				chain.backward(dQ, dK, dV, dOut)
			}},
		} {
			b.Run(fmt.Sprintf("B%d_n%d/%s", sh.b, sh.n, bc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bc.run()
				}
			})
		}
	}
}
