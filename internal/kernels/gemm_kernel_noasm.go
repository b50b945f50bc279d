//go:build !amd64

package kernels

// No assembly micro-kernel on this platform: the portable one is the
// whole table.
var kernelTable = []gemmKernel{scalarKernel}
