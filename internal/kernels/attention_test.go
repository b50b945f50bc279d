package kernels

import (
	"fmt"
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// attentionBySequence is the reference for AttentionRagged on route p: the
// kernel sequence the [B, n] attention runs — split heads, score
// BatchedGEMM, scale/causal/softmax, context BatchedGEMM, merge heads —
// applied to one sequence at a time at its own length.
func attentionBySequence(p GEMMPath, pool *Pool, out, q, k, v []float32, offsets []int, heads, dHead int, scale float32, causal bool) {
	d := heads * dHead
	for s := 1; s < len(offsets); s++ {
		lo, n := offsets[s-1]*d, offsets[s]-offsets[s-1]
		qh, kh, vh := make([]float32, n*d), make([]float32, n*d), make([]float32, n*d)
		pool.SplitHeads(qh, q[lo:lo+n*d], 1, n, heads, dHead)
		pool.SplitHeads(kh, k[lo:lo+n*d], 1, n, heads, dHead)
		pool.SplitHeads(vh, v[lo:lo+n*d], 1, n, heads, dHead)
		scores, probs := make([]float32, heads*n*n), make([]float32, heads*n*n)
		p.BatchedGEMM(pool, heads, false, true, n, n, dHead, 1, qh, n*dHead, kh, n*dHead, 0, scores, n*n)
		pool.ScaleMaskSoftmaxAttention(probs, scores, nil, scale, causal, 1, heads, n)
		ch := make([]float32, n*d)
		p.BatchedGEMM(pool, heads, false, false, n, dHead, n, 1, probs, n*n, vh, n*dHead, 0, ch, n*dHead)
		pool.MergeHeads(out[lo:lo+n*d], ch, 1, n, heads, dHead)
	}
}

// TestAttentionRaggedMatchesKernelSequence: the one-region ragged kernel
// is bitwise the existing attention kernel sequence run per sequence — on
// heads wide enough for the blocked engine and on ones that take the
// naive loops, causal or not, lengths from 1 up, on one worker and on
// several, on every GEMM route.
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
						size := offsets[len(offsets)-1] * heads * dHead
						q, k, v := randSlice(r, size), randSlice(r, size), randSlice(r, size)
						got, want := make([]float32, size), make([]float32, size)
						scale := float32(1 / math.Sqrt(float64(dHead)))
						path.AttentionRagged(pool, got, q, k, v, offsets, heads, dHead, scale, causal)
						attentionBySequence(path, pool, want, q, k, v, offsets, heads, dHead, scale, causal)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("element %d (token %d): ragged %v, kernel sequence %v", i, i/(heads*dHead), got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestAttentionRaggedZeroAllocSteadyState: the region's state and every
// worker's scratch tile are pooled.
func TestAttentionRaggedZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	pool := poolOf(1)
	r := tensor.NewRNG(22)
	offsets := []int{0, 5, 69, 70}
	const heads, dHead = 2, 64
	size := offsets[len(offsets)-1] * heads * dHead
	q, k, v, out := randSlice(r, size), randSlice(r, size), randSlice(r, size), make([]float32, size)
	GEMMPathAuto.AttentionRagged(pool, out, q, k, v, offsets, heads, dHead, 0.125, false) // warm the pools
	if avg := testing.AllocsPerRun(10, func() {
		GEMMPathAuto.AttentionRagged(pool, out, q, k, v, offsets, heads, dHead, 0.125, false)
	}); avg != 0 {
		t.Errorf("AttentionRagged allocates %v per op in steady state, want 0", avg)
	}
}

// TestAttentionRaggedRejectsBadOffsets: a malformed offsets slice panics
// before anything is read or written through it.
func TestAttentionRaggedRejectsBadOffsets(t *testing.T) {
	const heads, dHead = 2, 4
	buf := func(tokens int) []float32 { return make([]float32, tokens*heads*dHead) }
	for name, offsets := range map[string][]int{
		"empty":           {},
		"not from zero":   {1, 3},
		"empty sequence":  {0, 2, 2, 3},
		"descending":      {0, 3, 2, 3},
		"past the buffer": {0, 2, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			x := buf(3)
			GEMMPathAuto.AttentionRagged(nil, buf(3), x, x, x, offsets, heads, dHead, 1, false)
		}()
	}
}

// BenchmarkAttentionRaggedShort times AttentionRagged on one served
// query of n tokens through 4 heads of 64, on a one-worker pool and on
// the process pool. Below n = 16 both per-head products take the naive
// loops (2·n·n·64 < smallGEMMFlops).
func BenchmarkAttentionRaggedShort(b *testing.B) {
	const heads, dHead = 4, 64
	r := tensor.NewRNG(74)
	for _, n := range []int{5, 10, 16, 64} {
		size := n * heads * dHead
		q, k, v, out := randSlice(r, size), randSlice(r, size), randSlice(r, size), make([]float32, size)
		offsets := []int{0, n}
		for _, pp := range []struct {
			name string
			pool *Pool
		}{{"serial", poolOf(1)}, {"process", nil}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, pp.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					GEMMPathAuto.AttentionRagged(pp.pool, out, q, k, v, offsets, heads, dHead, 0.125, false)
				}
			})
		}
	}
}
