package nn

import (
	"slices"
	"strings"
	"testing"
	"time"

	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// TestAttentionTrainingWorkspaceDraws: one attention layer's training
// forward+backward draws exactly two [B·h, n, n] tensors from the
// workspace — the dropout mask and the saved probabilities — and no
// [B·h, n, dHead] head-split tensor: scores, dropped probabilities and
// their gradients live in the attention region's per-worker tiles.
func TestAttentionTrainingWorkspaceDraws(t *testing.T) {
	const b, n, d, heads = 2, 6, 16, 4 // dHead 4 ≠ n
	r := tensor.NewRNG(5)
	a := NewMultiHeadAttention("a", d, heads, 0.1, tensor.NewRNG(6))
	x, dY := randTensor(r, b*n, d), randTensor(r, b*n, d)
	ctx := NewCtx(1)
	ctx.ResetWorkspace()
	a.Forward(ctx, x, b, n, nil)
	a.Backward(ctx, dY)
	scores, split := 0, 0
	for _, s := range ctx.ws.slots[:ctx.ws.next] {
		switch shape := s.t.Shape(); {
		case slices.Equal(shape, []int{b * heads, n, n}):
			scores++
		case slices.Equal(shape, []int{b * heads, n, d / heads}):
			split++
		}
	}
	if scores != 2 || split != 0 {
		t.Errorf("training forward+backward drew %d [B·h, n, n] and %d [B·h, n, dHead] tensors, want 2 and 0", scores, split)
	}
}

// TestAttentionStageEventsSumToRegionWall: each attention region — the
// forward and the backward of a training step — is recorded as its two
// stage events, back to back, in the B-GEMM and Scale+Mask+DR+SM
// categories, and their durations sum to the wall time the region took,
// which lies inside the time the caller measured around it. splitWall, the
// split itself, sums to the wall exactly whatever the busy times.
func TestAttentionStageEventsSumToRegionWall(t *testing.T) {
	r := tensor.NewRNG(7)
	a := NewMultiHeadAttention("a", 32, 4, 0.1, tensor.NewRNG(8))
	x, dY := randTensor(r, 2*16, 32), randTensor(r, 2*16, 32)
	ctx := NewCtx(1)
	for _, pass := range []struct {
		phase profile.Phase
		run   func()
	}{
		{profile.Forward, func() { a.Forward(ctx, x, 2, 16, nil) }},
		{profile.Backward, func() { a.Backward(ctx, dY) }},
	} {
		ctx.Prof.Reset()
		start := time.Now()
		pass.run()
		outer := time.Since(start)
		var stages []profile.Event
		for _, ev := range ctx.Prof.Events() {
			if strings.HasPrefix(ev.Kernel, "attn_core_") {
				stages = append(stages, ev)
			}
		}
		cats := []profile.Category{profile.CatAttnBGEMM, profile.CatScaleMaskSM}
		if len(stages) != len(cats) {
			t.Fatalf("%v: %d stage events, want %d", pass.phase, len(stages), len(cats))
		}
		var sum time.Duration
		for i, ev := range stages {
			if ev.Category != cats[i] || ev.Phase != pass.phase || ev.Duration < 0 {
				t.Errorf("%v stage %d: %+v, want category %v, phase %v, duration ≥ 0", pass.phase, i, ev, cats[i], pass.phase)
			}
			if i > 0 && !ev.Start.Equal(stages[i-1].Start.Add(stages[i-1].Duration)) {
				t.Errorf("%v stage %d starts at %v, not where stage %d ends", pass.phase, i, ev.Start, i-1)
			}
			sum += ev.Duration
		}
		if sum <= 0 || sum > outer || stages[0].Start.Before(start) {
			t.Errorf("%v: stage events sum to %v from %v, want a positive wall inside the caller's %v from %v", pass.phase, sum, stages[0].Start, outer, start)
		}
		if stages[0].FLOPs == 0 || stages[1].Bytes == 0 {
			t.Errorf("%v: stage costs %d FLOPs and %d bytes; want both positive", pass.phase, stages[0].FLOPs, stages[1].Bytes)
		}
	}

	for _, c := range []struct {
		wall time.Duration
		busy [2]int64
	}{
		{1000, [2]int64{1, 1}}, {7, [2]int64{3, 11}}, {999983, [2]int64{1 << 40, 1}}, {999983, [2]int64{1 << 40, 0}},
		{12345, [2]int64{0, 0}}, {0, [2]int64{4, 9}}, {1 << 40, [2]int64{1, 1 << 50}},
	} {
		d := splitWall(c.wall, c.busy)
		if d[0]+d[1] != c.wall || d[0] < 0 || d[1] < 0 {
			t.Errorf("splitWall(%v, %v) = %v: want non-negative parts summing to the wall", c.wall, c.busy, d)
		}
	}
}
