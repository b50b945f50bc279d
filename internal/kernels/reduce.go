package kernels

import (
	"math"
	"sync"
)

// sumSqState is the pooled parallel-region body of SumSquares. Each
// grain-sized span writes its partial into a fixed slot (indexed by
// lo/grain), and the caller reduces the slots in order, so the result is
// deterministic no matter how the pool schedules chunks.
type sumSqState struct {
	x     []float32
	grain int
	part  []float64
}

var sumSqPool = sync.Pool{New: func() any { return new(sumSqState) }}

// runRange must handle ranges spanning several grains, one slot per grain:
// if the worker bound drops to 1 between SumSquares sizing part and
// parallelRun's own load, the inline fallback delivers [0, n) in a single
// call, and every slot of the pooled part slice must still be (re)written
// or stale partials from a previous call would leak into the sum.
func (s *sumSqState) runRange(lo, hi int) {
	g := s.grain
	for start := lo; start < hi; start += g {
		end := min(start+g, hi)
		var acc float64
		for _, v := range s.x[start:end] {
			acc += float64(v) * float64(v)
		}
		s.part[start/g] = acc
	}
}

// SumSquares returns sum(x[i]^2) in float64 for accuracy; it is the
// building block of LAMB's global gradient norm, the reduction the paper
// notes serializes the model update against the entire backprop
// (Section 3.2.3). Large inputs are reduced on the persistent worker pool.
func SumSquares(x []float32) float64 {
	n := len(x)
	w := MaxWorkers()
	if n < minForkWork || w == 1 {
		var s float64
		for _, v := range x {
			s += float64(v) * float64(v)
		}
		return s
	}
	grain := n / (4 * w)
	if grain < 2048 {
		grain = 2048
	}
	chunks := (n + grain - 1) / grain
	s := sumSqPool.Get().(*sumSqState)
	s.x, s.grain = x, grain
	if cap(s.part) < chunks {
		s.part = make([]float64, chunks)
	}
	s.part = s.part[:chunks]
	parallelRun(n, grain, s)
	var sum float64
	for _, p := range s.part {
		sum += p
	}
	s.x = nil
	sumSqPool.Put(s)
	return sum
}

// L2Norm returns the Euclidean norm of x.
func L2Norm(x []float32) float64 {
	return math.Sqrt(SumSquares(x))
}

// Sum returns the sum of x in float64.
func Sum(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}
