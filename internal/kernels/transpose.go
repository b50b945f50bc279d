package kernels

import "fmt"

// SplitHeads reshapes a (B·n)×dModel projection output into the
// (B·h)×n×dHead layout consumed by the batched attention GEMMs: matrix
// (b·h + head) holds the n×dHead block for that head. This is the "split
// to create the query, key and value vectors for each attention head"
// step of Section 3.2.2.
func (pool *Pool) SplitHeads(dst, x []float32, b, n, heads, dHead int) {
	dModel := heads * dHead
	if len(x) != b*n*dModel || len(dst) != b*n*dModel {
		panic(fmt.Sprintf("kernels: SplitHeads dims x=%d dst=%d b=%d n=%d h=%d dHead=%d", len(x), len(dst), b, n, heads, dHead))
	}
	rowBodies.run(pool, b*n, grainFor(pool, b*n, dModel), rowArgs{dst: dst, x: x, n: n, heads: heads, dHead: dHead}, splitHeadsRange)
}

func splitHeadsRange(ra *rowArgs, lo, hi int) {
	dst, x, n, heads, dHead := ra.dst, ra.x, ra.n, ra.heads, ra.dHead
	dModel := heads * dHead
	for t := lo; t < hi; t++ {
		batch, seq := t/n, t%n
		src := x[t*dModel : (t+1)*dModel]
		for h := 0; h < heads; h++ {
			dstOff := ((batch*heads+h)*n + seq) * dHead
			copy(dst[dstOff:dstOff+dHead], src[h*dHead:(h+1)*dHead])
		}
	}
}

// MergeHeads is the inverse of SplitHeads: it concatenates per-head
// (B·h)×n×dHead outputs back into (B·n)×dModel rows.
func (pool *Pool) MergeHeads(dst, x []float32, b, n, heads, dHead int) {
	dModel := heads * dHead
	if len(x) != b*n*dModel || len(dst) != b*n*dModel {
		panic(fmt.Sprintf("kernels: MergeHeads dims x=%d dst=%d b=%d n=%d h=%d dHead=%d", len(x), len(dst), b, n, heads, dHead))
	}
	rowBodies.run(pool, b*n, grainFor(pool, b*n, dModel), rowArgs{dst: dst, x: x, n: n, heads: heads, dHead: dHead}, mergeHeadsRange)
}

func mergeHeadsRange(ra *rowArgs, lo, hi int) {
	dst, x, n, heads, dHead := ra.dst, ra.x, ra.n, ra.heads, ra.dHead
	dModel := heads * dHead
	for t := lo; t < hi; t++ {
		batch, seq := t/n, t%n
		out := dst[t*dModel : (t+1)*dModel]
		for h := 0; h < heads; h++ {
			srcOff := ((batch*heads+h)*n + seq) * dHead
			copy(out[h*dHead:(h+1)*dHead], x[srcOff:srcOff+dHead])
		}
	}
}
