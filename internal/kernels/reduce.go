package kernels

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

// sumSqArgs are SumSquares' operands: item b folds block b of x into
// part[b], a fixed slot, and the caller adds the slots in order, so the
// result does not depend on how the pool schedules chunks.
type sumSqArgs struct {
	x    []float32
	part []float64
}

var sumSqBodies argsPool[sumSqArgs]

// sumSqRange must write one slot per block of its range: when the region
// runs inline it delivers every block in a single call, and a slot left
// unwritten would leak a stale partial from a previous call into the sum.
func sumSqRange(a *sumSqArgs, lo, hi int) {
	for b := lo; b < hi; b++ {
		a.part[b] = sumSqFold(a.x[b*sumSqBlock : min((b+1)*sumSqBlock, len(a.x))])
	}
}

// SumSquares returns sum(x[i]^2) in float64 for accuracy; it is the
// building block of LAMB's global gradient norm, the reduction the paper
// notes serializes the model update against the entire backprop
// (Section 3.2.3). Large inputs are reduced on the persistent worker pool;
// the result is the same at every worker count.
func (pool *Pool) SumSquares(x []float32) float64 {
	n := len(x)
	if n <= sumSqBlock {
		return sumSqFold(x)
	}
	blocks := (n + sumSqBlock - 1) / sumSqBlock
	p := getPartials(blocks)
	sumSqBodies.run(pool, blocks, grainFor(pool, blocks, sumSqBlock), sumSqArgs{x: x, part: *p}, sumSqRange)
	var sum float64
	for _, v := range *p {
		sum += v
	}
	f64Partials.put(p)
	return sum
}
