package kernels

import "sync"

// The float64 sum of squares is one fixed fold, whatever the ISA and the
// worker count: the input is cut into sumSqBlock-element blocks; inside a
// block element i adds its square to lane i mod 8 of eight float64 lanes,
// the lanes are combined as ((0+1)+(2+3))+((4+5)+(6+7)), and the up to
// seven elements of a ragged tail are then added in order; block partials
// are added in index order. SumSquares and LAMBStage1's fused norms both
// follow it, so they agree bit for bit, and a LAMB trajectory does not
// depend on how many workers ran it.
const sumSqBlock = 4096

// fold8 combines the eight lanes of a block.
func fold8(l *[8]float64) float64 {
	return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

// sumSq8Go is the portable lane body: the folded sum of squares of x,
// whose length is a multiple of 8. (A float32 square is exact in float64,
// so a compiler that fuses the multiply-add changes nothing.)
func sumSq8Go(x []float32) float64 {
	var l [8]float64
	for ; len(x) >= 8; x = x[8:] {
		for j, v := range x[:8] {
			l[j] += float64(v) * float64(v)
		}
	}
	return fold8(&l)
}

// sumSqFold is the fold of one block (len(x) <= sumSqBlock).
func sumSqFold(x []float32) float64 {
	n8 := len(x) &^ 7
	var s float64
	if n8 > 0 {
		if body := activeKernel.sumSq8; body != nil {
			s = body(x[:n8])
		} else {
			s = sumSq8Go(x[:n8])
		}
	}
	for _, v := range x[n8:] {
		s += float64(v) * float64(v)
	}
	return s
}

// sumSqState is the pooled parallel-region body of SumSquares. Each
// grain-sized block writes its partial into a fixed slot (indexed by
// lo/grain), and the caller reduces the slots in order, so the result is
// deterministic no matter how the pool schedules chunks. grain is the fold
// block, not the dispatch chunk: a chunk is several whole blocks.
type sumSqState struct {
	x     []float32
	grain int
	part  []float64
}

var sumSqPool = sync.Pool{New: func() any { return new(sumSqState) }}

// runRange must handle ranges spanning several grains, one slot per grain:
// a dispatch chunk is several blocks, and when parallelRun runs inline it
// delivers [0, n) in a single call; every slot of the pooled part slice
// must be (re)written or stale partials from a previous call would leak
// into the sum.
func (s *sumSqState) runRange(lo, hi int) {
	g := s.grain
	for start := lo; start < hi; start += g {
		s.part[start/g] = sumSqFold(s.x[start:min(start+g, hi)])
	}
}

// foldChunk is how many fold blocks one pool work item carries: about
// four items per worker, as in parallelFor.
func foldChunk(blocks int) int {
	return max(1, blocks/(4*MaxWorkers()))
}

// SumSquares returns sum(x[i]^2) in float64 for accuracy; it is the
// building block of LAMB's global gradient norm, the reduction the paper
// notes serializes the model update against the entire backprop
// (Section 3.2.3). Large inputs are reduced on the persistent worker pool;
// the result is the same at every worker count.
func SumSquares(x []float32) float64 {
	n := len(x)
	if n <= sumSqBlock {
		return sumSqFold(x)
	}
	blocks := (n + sumSqBlock - 1) / sumSqBlock
	s := sumSqPool.Get().(*sumSqState)
	s.x, s.grain = x, sumSqBlock
	if cap(s.part) < blocks {
		s.part = make([]float64, blocks)
	}
	s.part = s.part[:blocks]
	parallelRun(n, foldChunk(blocks)*sumSqBlock, s)
	var sum float64
	for _, p := range s.part {
		sum += p
	}
	s.x = nil
	sumSqPool.Put(s)
	return sum
}
