package kernels

import (
	"fmt"
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// gapNaN fills the gaps around embedded operands: a quiet NaN with a
// payload no arithmetic produces, so a gap element that is read shows in
// the result and one that is written shows in its bits.
var gapNaN = math.Float32frombits(0x7fc0beef)

// embed places the rows×cols matrix x at column col0 of a buffer of rows
// rows of ld floats (ld ≥ col0+cols), every other element gapNaN, and
// returns the buffer and the window's first element's offset in it.
func embed(x []float32, rows, cols, ld, col0 int) ([]float32, int) {
	buf := make([]float32, rows*ld)
	for i := range buf {
		buf[i] = gapNaN
	}
	for r := 0; r < rows; r++ {
		copy(buf[r*ld+col0:r*ld+col0+cols], x[r*cols:(r+1)*cols])
	}
	return buf, col0
}

// TestGEMMStridedOperandsBitwise: GEMMPath.run reads A and B and writes C
// at leading dimensions wider than their rows, on every route, serial and
// on pools of width 1–3, under every kernel-table entry, for all four
// transpose pairs, beta 0, 1 and 0.5, and edge shapes — m below the
// micro-tile's rows, n below its columns, k across a depth block, m just
// above the short-stripe rule, and a product the size rule sends to the
// naive loops. Every operand sits in a wider buffer with NaN in every gap;
// each result is bit for bit the product of the contiguous operands on the
// same route, and no element of C outside its window changes.
func TestGEMMStridedOperandsBitwise(t *testing.T) {
	pools := []*Pool{serial, poolOf(1), poolOf(2), poolOf(3)}
	if testing.Short() || raceEnabled {
		pools = []*Pool{serial, poolOf(2)}
	}
	forEachKernel(t, "", func(t *testing.T) {
		shapes := [][3]int{
			{gemmMR - 1, 70, 48},
			{40, gemmNR - 1, 64},
			{20, 33, gemmKC + 7},
			{shortStripeRows + 1, 37, 19},
			{3, 5, 2},
		}
		r := tensor.NewRNG(91)
		for _, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2]
			for tr := 0; tr < 4; tr++ {
				transA, transB := tr&1 != 0, tr&2 != 0
				// Stored shapes of A and B.
				ar, ac := m, k
				if transA {
					ar, ac = k, m
				}
				br, bc := k, n
				if transB {
					br, bc = n, k
				}
				a, b := randSlice(r, ar*ac), randSlice(r, br*bc)
				aBuf, aOff := embed(a, ar, ac, ac+5, 3)
				bBuf, bOff := embed(b, br, bc, bc+2, 1)
				for _, beta := range []float32{0, 1, 0.5} {
					c0 := randSlice(r, m*n)
					if beta == 0 {
						for i := range c0 {
							c0[i] = float32(math.NaN()) // never read at beta = 0
						}
					}
					for _, route := range []GEMMPath{GEMMPathNaive, GEMMPathBlocked, GEMMPathFused, GEMMPathAuto} {
						for pi, pool := range pools {
							want := append([]float32(nil), c0...)
							route.run(pool, transA, transB, m, n, k, 1.25, a, ac, b, bc, nil, beta, nil, want, n)
							const col0 = 4
							cBuf, cOff := embed(c0, m, n, n+7, col0)
							before := append([]float32(nil), cBuf...)
							route.run(pool, transA, transB, m, n, k, 1.25, aBuf[aOff:], ac+5, bBuf[bOff:], bc+2, nil, beta, nil, cBuf[cOff:], n+7)
							id := fmt.Sprintf("%dx%dx%d transA=%v transB=%v beta=%v %v pool#%d", m, n, k, transA, transB, beta, route, pi)
							for i, v := range cBuf {
								row, col := i/(n+7), i%(n+7)-col0
								exp := before[i]
								if col >= 0 && col < n {
									exp = want[row*n+col]
								}
								if math.Float32bits(v) != math.Float32bits(exp) {
									t.Fatalf("%s: C buffer[%d] (row %d, window column %d) = %#08x, want %#08x", id, i, row, col, math.Float32bits(v), math.Float32bits(exp))
								}
							}
						}
					}
				}
			}
		}
	})
}
