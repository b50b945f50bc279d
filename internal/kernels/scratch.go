package kernels

import (
	"math/bits"
	"sync"
)

// freeList is the one pooling primitive of the package: a mutex-guarded
// stack of reusable objects, behind the region handles, the argsPool
// bodies, the reduction partials and the f32 scratch classes. Its zero
// value is ready to use, and get returns a zero T when the stack is empty.
// A list holds at most the objects that were ever in use at once and keeps
// them across garbage collections; DESIGN.md §6 says why that, and not the
// standard library's pool, is what a step needs.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	if k := len(l.free); k > 0 {
		x := l.free[k-1]
		l.free = l.free[:k-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return new(T)
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// f32Scratch hands out reusable float32 buffers for GEMM pack panels, edge
// micro-tiles and attention tiles, one free list per power-of-two
// capacity, so steady-state training — which issues the same GEMM shapes
// every iteration — does zero per-call allocation after warm-up.
var f32Scratch [bits.UintSize]freeList[[]float32]

const scratchMin = 1 << 12 // smallest capacity handed out: 4096 floats (16 KiB)

// scratchClass is the size class of a buffer of n floats: its capacity is
// 1<<scratchClass(n).
func scratchClass(n int) int { return bits.Len(uint(max(n, scratchMin) - 1)) }

// getScratch returns a buffer of length n (contents undefined).
func getScratch(n int) *[]float32 {
	c := scratchClass(n)
	s := f32Scratch[c].get()
	if *s == nil {
		*s = make([]float32, 1<<c)
	}
	*s = (*s)[:n]
	return s
}

func putScratch(s *[]float32) { f32Scratch[scratchClass(cap(*s))].put(s) }

// reserveScratch tops up the free lists, before a region forks, to what
// pieces of its chunks running at once hold when each holds one buffer of
// every size in sizes (float counts; 0 stands for none). Which chunks
// overlap is the scheduler's choice, so without it the lists would grow
// in whichever step first ran the most of them side by side; with it they
// reach their high-water mark in the first step of a shape, whatever the
// timing. A region whose chunks draw different sets in turn reserves each
// set with its own call.
func reserveScratch(pieces int, sizes ...int) {
	for _, n := range sizes {
		if n == 0 {
			continue
		}
		c, need := scratchClass(n), 0
		for _, m := range sizes {
			if m != 0 && scratchClass(m) == c {
				need += pieces
			}
		}
		l := &f32Scratch[c]
		l.mu.Lock()
		for len(l.free) < need {
			b := make([]float32, 1<<c)
			l.free = append(l.free, &b)
		}
		l.mu.Unlock()
	}
}

// f64Partials holds the per-block partial sums of SumSquares and
// LAMBStage1.
var f64Partials freeList[[]float64]

// getPartials returns a buffer of length n (contents undefined).
func getPartials(n int) *[]float64 {
	p := f64Partials.get()
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}
