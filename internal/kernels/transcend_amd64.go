//go:build amd64

package kernels

// Bindings for the AVX-512 transcendental bodies (transcend_amd64.s). Each
// takes 1..64 elements (the other slices at least as long as x), stores
// the lanes whose float32 result it could settle and returns the mask of
// the others, which the span drivers in gelu.go and softmax.go finish with
// the reference expression. Only the avx512 entry of the kernel table
// carries them.

//go:noescape
func geluVec512(dst, x []float32) (fallback uint64)

//go:noescape
func geluGradVec512(dX, dY, x []float32) (fallback uint64)

//go:noescape
func expVec512(dst, x []float32, m float32) (fallback uint64)
