//go:build !linux

package kernels

import "testing"

// guardedTail returns a copy of src on an exact-length slice: off Linux
// only the Go code's bounds checks catch a read past the operand.
func guardedTail(_ testing.TB, src []float32) []float32 {
	return append(make([]float32, 0, len(src)), src...)
}
