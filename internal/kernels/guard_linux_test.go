package kernels

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedTail returns a copy of src that ends exactly where an unreadable
// page begins, so any read past the operand — by Go code or by an
// assembly kernel, which no bounds check covers — faults. The mapping is
// released when t ends.
func guardedTail(t testing.TB, src []float32) []float32 {
	page := syscall.Getpagesize()
	size := len(src) * 4
	data := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	dst := unsafe.Slice((*float32)(unsafe.Pointer(&mem[data-size])), len(src))
	copy(dst, src)
	return dst
}
