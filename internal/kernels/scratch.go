package kernels

import "sync"

// f32Scratch hands out reusable float32 buffers for GEMM pack panels.
// Buffers are rounded up to coarse size classes so steady-state training —
// which issues the same GEMM shapes every iteration — does zero per-call
// allocation after warm-up.
var f32Scratch = sync.Pool{New: func() any { return new([]float32) }}

const scratchRound = 1 << 12 // round capacities to 4096 floats (16 KiB)

// getScratch returns a buffer of length n (contents undefined).
func getScratch(n int) *[]float32 {
	s := f32Scratch.Get().(*[]float32)
	if cap(*s) < n {
		*s = make([]float32, (n+scratchRound-1)&^(scratchRound-1))
	}
	*s = (*s)[:n]
	return s
}

func putScratch(s *[]float32) { f32Scratch.Put(s) }
