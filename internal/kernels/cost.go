package kernels

// Canonical algorithmic cost formulas shared by the real-engine profiler
// and the analytical operator graph (internal/opgraph), so both substrates
// report identical FLOP counts and byte traffic for the same operator.
//
// Byte traffic is the algorithmic minimum: each operand read once and each
// output written once at the element size of the active precision. This is
// the quantity the paper's arithmetic-intensity analysis (Section 2.6,
// Fig. 6–7) is defined over.

// GEMMFLOPs returns the multiply-add operation count of an M×N×K GEMM,
// counted as 2·M·N·K (one multiply + one add per MAC), the convention the
// paper and vendor datasheets use.
func GEMMFLOPs(m, n, k int) int64 {
	return 2 * int64(m) * int64(n) * int64(k)
}

// GEMMBytes returns the algorithmic byte traffic of an M×N×K GEMM at the
// given element size: read A (M·K) and B (K·N), write C (M·N).
func GEMMBytes(m, n, k int, elemSize int) int64 {
	return int64(elemSize) * (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n))
}

// EWFLOPs returns the operation count of an element-wise kernel over n
// elements performing opsPerElem operations each.
func EWFLOPs(n int, opsPerElem int) int64 {
	return int64(n) * int64(opsPerElem)
}

// EWBytes returns the byte traffic of an element-wise kernel with the
// given numbers of input and output arrays of n elements each.
func EWBytes(n int, inputs, outputs int, elemSize int) int64 {
	return int64(n) * int64(inputs+outputs) * int64(elemSize)
}
