//go:build amd64

package kernels

// Binding for DropoutMask's AVX-512 body (dropout_amd64.s), which only the
// avx512 entry of the kernel table carries: VPMULLQ is AVX512DQ.

//go:noescape
func dropoutFill512(n int64, mask *float32, st *[8]uint64, thr uint64, keep float32)

// dropoutFillSIMD fills mask, a positive multiple of 64 elements, as eight
// contiguous sub-streams from the states st, and returns the state the
// last one ends in, where the stream continues after mask.
func dropoutFillSIMD(mask []float32, st [8]uint64, thr uint64, keep float32) uint64 {
	dropoutFill512(int64(len(mask)), &mask[0], &st, thr, keep)
	return st[7]
}
