package kernels

import (
	"fmt"
	"math"

	"demystbert/internal/tensor"
)

// dropoutGrain is the element chunk DropoutMask hands to the pool: 64 KiB
// of mask, several microseconds of filling, against about one to skip a
// chunk's generator and its eight sub-streams to their starts.
const dropoutGrain = 16384

// dropoutArgs are DropoutMask's operands: the generator state at mask[0],
// the integer drop threshold and the kept value.
type dropoutArgs struct {
	mask  []float32
	state uint64
	thr   uint64
	keep  float32
}

var dropoutBodies argsPool[dropoutArgs]

// DropoutMask fills mask with an inverted-dropout mask: each element is
// 1/(1-p) with probability 1-p and 0 with probability p. Scaling at train
// time keeps activation magnitudes unchanged so inference needs no
// rescale.
//
// Stream-stability contract: p == 0 produces the identity mask WITHOUT
// consuming the RNG stream. The number of draws a training step consumes
// must not depend on rates that are exactly zero, so enabling a zero-rate
// dropout layer cannot shift downstream random state — seed-for-seed
// comparisons against a no-dropout model (and the audit harness's
// fixed-seed determinism pins) rely on this. For p > 0 element i is decided
// by draw i of rng's stream, and rng ends len(mask) draws on.
//
// The fill is parallel and still draws that serial stream: each chunk
// starts from a copy of the generator skipped to its first index
// (tensor.RNG.Skip), so the mask does not depend on the worker count.
// Draw u drops its element when u>>40 < ceil(p·2²⁴), which is exactly
// rng.Float32() < p: Float32 is the 24-bit integer u>>40 over 2²⁴, exact.
func (pool *Pool) DropoutMask(mask []float32, p float32, rng *tensor.RNG) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("kernels: dropout probability %v outside [0,1)", p))
	}
	if p == 0 {
		for i := range mask {
			mask[i] = 1
		}
		return
	}
	args := dropoutArgs{mask: mask, state: rng.State(),
		thr: uint64(math.Ceil(float64(p) * (1 << 24))), keep: 1 / (1 - p)}
	dropoutBodies.run(pool, len(mask), dropoutGrain, args, dropoutRange)
	rng.Skip(uint64(len(mask)))
}

func dropoutRange(a *dropoutArgs, lo, hi int) {
	dropoutFill(a.mask[lo:hi], skipped(a.state, uint64(lo)), a.thr, a.keep)
}

// skipped returns the generator state s advanced by n draws.
func skipped(s, n uint64) uint64 {
	r := *tensor.NewRNG(s)
	r.Skip(n)
	return r.State()
}

// dropoutFill fills mask from the generator state s. The kernel table's
// vector body, when there is one, runs eight sub-streams, one contiguous
// eighth of the whole 64-element groups each, from states skipped to
// their starts; the Go body draws the rest from where the last sub-stream
// ends.
func dropoutFill(mask []float32, s uint64, thr uint64, keep float32) {
	if body := activeKernel.dropout; body != nil {
		if lane := len(mask) / 64 * 8; lane > 0 {
			var st [8]uint64
			st[0] = s
			for j := 1; j < len(st); j++ {
				st[j] = skipped(st[j-1], uint64(lane))
			}
			mask, s = mask[8*lane:], body(mask[:8*lane], st, thr, keep)
		}
	}
	dropoutFillGo(mask, s, thr, keep)
}

// dropoutFillGo is the Go body: tensor.RNG.Uint64's step spelled out on a
// local state, which then stays in a register, and the keep value chosen
// without a branch the drop rate would make unpredictable.
func dropoutFillGo(mask []float32, s uint64, thr uint64, keep float32) {
	kb := math.Float32bits(keep)
	for i := range mask {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		v := kb
		if s*0x2545F4914F6CDD1D>>40 < thr {
			v = 0
		}
		mask[i] = math.Float32frombits(v)
	}
}

// DropoutApply computes dst = x * mask; it implements both the forward
// pass and, applied to gradients, the backward pass (dropout's Jacobian is
// the mask itself).
func (pool *Pool) DropoutApply(dst, x, mask []float32) {
	pool.Mul(dst, x, mask)
}
