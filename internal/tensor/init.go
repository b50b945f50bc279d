package tensor

import (
	"math"
	"math/bits"
	"sync"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64*). The engine uses it instead of math/rand so that model
// initialization and dropout masks are reproducible across runs and
// platforms, which the gradient-check and integration tests rely on.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is replaced by a
// fixed non-zero constant, since the xorshift state must be non-zero.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := xorshift(r.state)
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// State returns the generator's raw state: NewRNG(r.State()) draws the
// same stream as r from here on (the state is never zero).
func (r *RNG) State() uint64 { return r.state }

// xorshift is the generator's state step. Each of its three shifts and
// xors is linear over GF(2), so the step is one 64×64 bit matrix M, and n
// steps are M^n.
func xorshift(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

// jumpTable[k] is M^(2^k) as 64 columns: column i is the image of bit i.
// It is 32 KiB, built on first use by repeated squaring.
var jumpTable = sync.OnceValue(func() *[64][64]uint64 {
	t := new([64][64]uint64)
	for i := range t[0] {
		t[0][i] = xorshift(1 << i)
	}
	for k := 1; k < len(t); k++ {
		for i := range t[k] {
			t[k][i] = applyBits(&t[k-1], t[k-1][i])
		}
	}
	return t
})

// applyBits returns the bit matrix m applied to x: the xor of the columns
// of m at x's set bits.
func applyBits(m *[64]uint64, x uint64) (y uint64) {
	for ; x != 0; x &= x - 1 {
		y ^= m[bits.TrailingZeros64(x)]
	}
	return y
}

// Skip advances the generator by n draws in O(log n) — one matrix
// application per set bit of n — leaving it exactly where n calls of
// Uint64 would. A fill cut into chunks starts each chunk from a copy
// skipped to the chunk's first index and draws the serial stream.
func (r *RNG) Skip(n uint64) {
	if n == 0 {
		return
	}
	t := jumpTable()
	for k := 0; n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			r.state = applyBits(&t[k], r.state)
		}
	}
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / float32(1<<24)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat32 returns a standard-normal value using the Box–Muller
// transform.
func (r *RNG) NormFloat32() float32 {
	// Avoid log(0) by keeping u1 strictly positive.
	u1 := float64(r.Float32())
	for u1 == 0 {
		u1 = float64(r.Float32())
	}
	u2 := float64(r.Float32())
	return float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// FillUniform fills t with uniform values in [lo, hi). Here and in
// FillNormal the product is rounded before the add, so arm64 does not fuse
// the two and starts from amd64's weights (check.sh greps the listing).
func (t *Tensor) FillUniform(r *RNG, lo, hi float32) {
	scale := hi - lo
	for i := range t.data {
		t.data[i] = lo + float32(scale*r.Float32())
	}
}

// FillNormal fills t with normal values of the given mean and standard
// deviation.
func (t *Tensor) FillNormal(r *RNG, mean, std float32) {
	for i := range t.data {
		t.data[i] = mean + float32(std*r.NormFloat32())
	}
}

// FillXavier fills t using Xavier/Glorot uniform initialization for a
// weight matrix with the given fan-in and fan-out.
func (t *Tensor) FillXavier(r *RNG, fanIn, fanOut int) {
	limit := float32(math.Sqrt(6 / float64(fanIn+fanOut)))
	t.FillUniform(r, -limit, limit)
}
