package kernels

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"demystbert/internal/tensor"
)

// parentDropoutMask is the serial fill the chunked one replaced: one draw
// per element in index order, compared as a float.
func parentDropoutMask(mask []float32, p float32, rng *tensor.RNG) {
	if p == 0 {
		for i := range mask {
			mask[i] = 1
		}
		return
	}
	keep := 1 / (1 - p)
	for i := range mask {
		if rng.Float32() < p {
			mask[i] = 0
		} else {
			mask[i] = keep
		}
	}
}

// TestDropoutMaskMatchesSerialStream: under every kernel-table entry and
// at widths 1–4, the mask and the generator's state after the call equal
// the serial loop's, at lengths on either side of a chunk edge and of the
// vector body's 64-element groups; p = 0 consumes nothing.
func TestDropoutMaskMatchesSerialStream(t *testing.T) {
	const c = dropoutGrain
	lengths := []int{0, 1, 63, 64, 65, 511, 513, c - 1, c, c + 1, 3*c + 5}
	forEachKernel(t, "", func(t *testing.T) {
		for w := 1; w <= 4; w++ {
			pool := poolOf(w)
			for _, n := range lengths {
				for _, p := range []float32{0, 1e-7, 0.1, 0.5, 0.999} {
					seed := uint64(1000*w + n)
					want, got := make([]float32, n), make([]float32, n)
					wr, gr := tensor.NewRNG(seed), tensor.NewRNG(seed)
					parentDropoutMask(want, p, wr)
					pool.DropoutMask(got, p, gr)
					id := fmt.Sprintf("width %d n=%d p=%v", w, n, p)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s: mask[%d] = %v, serial %v", id, i, got[i], want[i])
						}
					}
					if gr.State() != wr.State() {
						t.Fatalf("%s: generator state %#x after the call, serial %#x", id, gr.State(), wr.State())
					}
					if p == 0 && gr.State() != seed {
						t.Fatalf("%s: p = 0 consumed draws", id)
					}
				}
			}
		}
	})
}

// TestDropoutMaskStreamFingerprint pins the stream itself, so it cannot
// move together with the oracle: an FNV-64a of a 2²⁰-element mask's bits
// at a fixed seed, and the next draw after it, as the serial loop
// computed them.
func TestDropoutMaskStreamFingerprint(t *testing.T) {
	cases := []struct {
		p          float32
		hash, next uint64
	}{
		{0.1, 0xc8916cf51b5118ce, 0x2eaa6c240e489334},
		{0.5, 0xa7bcef2ec08c98a5, 0x2eaa6c240e489334},
	}
	forEachKernel(t, "", func(t *testing.T) {
		mask := make([]float32, 1<<20)
		for _, c := range cases {
			rng := tensor.NewRNG(20240611)
			processPool.DropoutMask(mask, c.p, rng)
			h := fnv.New64a()
			var b [4]byte
			for _, v := range mask {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
			if got, next := h.Sum64(), rng.Uint64(); got != c.hash || next != c.next {
				t.Errorf("p=%v: mask FNV-64a %#016x, next draw %#016x; want %#016x, %#016x", c.p, got, next, c.hash, c.next)
			}
		}
	})
}

// BenchmarkDropoutMask fills the step's two mask sizes — a hidden
// activation and the attention scores — at train_update (B=1, n=128,
// d=256, h=4) and train_gemm (B=4, d=768, h=12) shapes under every
// kernel-table entry, at the width -cpu sets. MB/s counts the mask
// written.
func BenchmarkDropoutMask(b *testing.B) {
	pool := poolOf(runtime.GOMAXPROCS(0))
	for _, s := range []struct {
		name           string
		hidden, scores int
	}{
		{"train_update", 128 * 256, 4 * 128 * 128},
		{"train_gemm", 4 * 128 * 768, 4 * 12 * 128 * 128},
	} {
		b.Run(s.name, func(b *testing.B) {
			hidden, scores := make([]float32, s.hidden), make([]float32, s.scores)
			rng := tensor.NewRNG(48)
			benchEachKernel(b, 4*(s.hidden+s.scores), func() {
				pool.DropoutMask(hidden, 0.1, rng)
				pool.DropoutMask(scores, 0.1, rng)
			})
		})
	}
}
