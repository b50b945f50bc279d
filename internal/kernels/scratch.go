package kernels

import (
	"math/bits"
	"sync"
)

// f32Scratch hands out reusable float32 buffers for GEMM pack panels and
// attention tiles, one free list per power-of-two capacity, so
// steady-state training — which issues the same GEMM shapes every
// iteration — does zero per-call allocation after warm-up. The lists are
// plain stacks, not sync.Pools: a pool drops its contents at every garbage
// collection and hides a buffer returned on one P from a request on
// another, which under a collection per training step cost a few MiB of
// fresh panels per step. A list holds at most the buffers that were ever
// in use at once.
var f32Scratch [bits.UintSize]scratchList

type scratchList struct {
	mu   sync.Mutex
	free []*[]float32
}

const scratchMin = 1 << 12 // smallest capacity handed out: 4096 floats (16 KiB)

// scratchClass is the size class of a buffer of n floats: its capacity is
// 1<<scratchClass(n).
func scratchClass(n int) int { return bits.Len(uint(max(n, scratchMin) - 1)) }

// getScratch returns a buffer of length n (contents undefined).
func getScratch(n int) *[]float32 {
	c := scratchClass(n)
	l := &f32Scratch[c]
	var s *[]float32
	l.mu.Lock()
	if k := len(l.free); k > 0 {
		s = l.free[k-1]
		l.free = l.free[:k-1]
	}
	l.mu.Unlock()
	if s == nil {
		s = new([]float32)
		*s = make([]float32, 1<<c)
	}
	*s = (*s)[:n]
	return s
}

func putScratch(s *[]float32) {
	l := &f32Scratch[scratchClass(cap(*s))]
	l.mu.Lock()
	l.free = append(l.free, s)
	l.mu.Unlock()
}
