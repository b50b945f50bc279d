package nn

import (
	"math"
	"slices"

	"demystbert/internal/tensor"
)

// workspace is the activation memory of every pass on a Ctx: the training
// step's forward and backward and the evaluation forward alike. A model
// forward entry point resets it, and from there each draw takes the next
// slot: the i-th draw after a reset always comes from the same call site,
// so draw i reuses slot i, and a slot grows only when a step needs more
// than any step before it. Shapes repeat, so after the first few steps
// neither a training step nor an evaluation batch allocates activation
// memory, and the runtime zeroes none. While a slot's shape repeats, its
// tensor header is handed out again too.
//
// Nothing is reused within a step: every draw since the last reset stays
// valid until the next one, so a forward's saved activations survive into
// its backward, checkpoint recompute included.
//
// NewActivation hands memory out uninitialised, for producers that write
// every element (GEMM write-backs, element-wise kernels, LayerNorm, the
// embedding sum, row gathers); NewZeroedActivation clears it first, for a
// consumer that accumulates into it.
type workspace struct {
	slots []wsSlot
	next  int

	// poison fills every slot with NaN at each reset and every new slot
	// when it is made, so that a read of memory no producer wrote this
	// step shows in the result. Only tests set it (export_test.go).
	poison bool
}

// wsSlot is one draw site's memory and the tensor header last handed out
// over it.
type wsSlot struct {
	buf []float32
	t   *tensor.Tensor
}

// draw returns the next slot as a tensor of the given shape.
func (w *workspace) draw(shape []int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if w.next == len(w.slots) {
		w.slots = append(w.slots, wsSlot{})
	}
	s := &w.slots[w.next]
	w.next++
	if cap(s.buf) < n {
		// Grow geometrically so a slowly rising batch size settles after a
		// few steps rather than reallocating on each.
		s.buf = make([]float32, n, max(n, 2*cap(s.buf)))
		s.t = nil
		if w.poison {
			fillNaN(s.buf[:cap(s.buf)])
		}
	}
	if s.t == nil || !slices.Equal(s.t.Shape(), shape) {
		s.t = tensor.Of(s.buf[:n], shape...)
	}
	return s.t
}

func fillNaN(buf []float32) {
	nan := float32(math.NaN())
	for i := range buf {
		buf[i] = nan
	}
}

// ResetWorkspace starts a new pass on this context: what earlier passes
// drew from the workspace is reused from here on, so every tensor they
// returned becomes invalid. The model's forward entry points call it —
// model.BERT.Forward (so each StepAccum micro-step), FineTuner.Forward and
// EncodeEval — as does a caller that drives layers directly once per
// step; nothing else should. The workspace is created by the first call,
// so a context that never calls it allocates every activation with
// tensor.New.
func (c *Ctx) ResetWorkspace() {
	if c.ws == nil {
		c.ws = new(workspace)
	}
	c.ws.next = 0
	if c.ws.poison {
		for _, s := range c.ws.slots {
			fillNaN(s.buf[:cap(s.buf)])
		}
	}
}

// NewActivation returns a tensor for an activation or activation gradient,
// in training and evaluation alike: the next draw from the workspace once
// ResetWorkspace has run, else a fresh zeroed tensor.New. A workspace
// tensor's contents are undefined, so the caller must write every element;
// it stays valid until the next ResetWorkspace.
func (c *Ctx) NewActivation(shape ...int) *tensor.Tensor {
	if c.ws == nil {
		return tensor.New(shape...)
	}
	return c.ws.draw(shape)
}

// NewZeroedActivation is NewActivation with every element set to +0, for a
// consumer that accumulates into the tensor rather than writing it whole.
func (c *Ctx) NewZeroedActivation(shape ...int) *tensor.Tensor {
	if c.ws == nil {
		return tensor.New(shape...)
	}
	t := c.ws.draw(shape)
	clear(t.Data())
	return t
}
