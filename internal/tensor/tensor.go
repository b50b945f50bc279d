// Package tensor provides the dense float32 tensor type used by the
// real-execution BERT engine, together with shape utilities, deterministic
// random initialization, and IEEE-754 half-precision (binary16) storage
// conversion used to emulate mixed-precision memory traffic.
//
// Tensors are row-major and contiguous. The package is deliberately small:
// it supplies exactly the functionality the kernels in internal/kernels
// need, with no lazy evaluation or device abstraction.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense, row-major, contiguous float32 tensor.
//
// The zero value is an empty (rank-0, size-0) tensor. Use New or Of to
// construct tensors with a shape.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// Of wraps an existing data slice with a shape. The slice is used directly
// (not copied); its length must equal the shape's element count.
func Of(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), append([]int(nil), shape...), n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// The copy keeps shape itself from escaping, so a caller's
			// variadic shape stays on its stack.
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Dim returns the size of dimension i, supporting negative indices
// counting from the end (Dim(-1) is the innermost dimension).
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.shape)
	}
	return t.shape[i]
}

// Data returns the underlying storage. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", append([]int(nil), idx...), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must match exactly.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !SameShape(t, src) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	clear(t.data)
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Row returns a view of row r of a rank-2 tensor as a slice.
func (t *Tensor) Row(r int) []float32 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	c := t.shape[1]
	return t.data[r*c : (r+1)*c]
}

// Batch returns a rank-(r-1) view of index b along the first dimension.
// The returned tensor shares storage with t.
func (t *Tensor) Batch(b int) *Tensor {
	if len(t.shape) < 1 {
		panic("tensor: Batch on rank-0 tensor")
	}
	if b < 0 || b >= t.shape[0] {
		panic(fmt.Sprintf("tensor: batch index %d out of range for shape %v", b, t.shape))
	}
	sub := 1
	for _, d := range t.shape[1:] {
		sub *= d
	}
	return &Tensor{
		shape: append([]int(nil), t.shape[1:]...),
		data:  t.data[b*sub : (b+1)*sub],
	}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, e.g. "Tensor[32 128 1024]".
func (t *Tensor) String() string {
	dims := make([]string, len(t.shape))
	for i, d := range t.shape {
		dims[i] = fmt.Sprint(d)
	}
	return "Tensor[" + strings.Join(dims, " ") + "]"
}
