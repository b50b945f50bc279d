package tensor

import (
	"math"
	"testing"
)

// FuzzF16RoundTrip drives the half-precision converter with arbitrary
// float32 bit patterns: conversion must never widen the value's
// representable range and must be idempotent after one quantization.
func FuzzF16RoundTrip(f *testing.F) {
	for _, seed := range []uint32{0, 0x3F800000, 0x7F800000, 0xFF800000, 0x7FC00000, 1, 0x33800000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		v := math.Float32frombits(bits)
		h := ToF16(v)
		back := h.Float32()

		if math.IsNaN(float64(v)) {
			if !math.IsNaN(float64(back)) {
				t.Fatalf("NaN %#x lost NaN-ness: %v", bits, back)
			}
			return
		}
		// Idempotence: quantizing the quantized value is a fixed point.
		if ToF16(back) != h {
			t.Fatalf("%v (%#x): ToF16(back)=%#x != %#x", v, bits, ToF16(back), h)
		}
		// Sign preservation for non-zero results.
		if back != 0 && math.Signbit(float64(back)) != math.Signbit(float64(v)) {
			t.Fatalf("%v: sign flipped to %v", v, back)
		}
		// Magnitude never grows beyond the next representable half.
		if !math.IsInf(float64(back), 0) && math.Abs(float64(back)) > 65504 {
			t.Fatalf("%v: finite half out of range: %v", v, back)
		}
	})
}
