package nn

import "demystbert/internal/tensor"

// workspace is the evaluation forward's activation memory. A forward draws
// its activations from it in a fixed order — the i-th draw after a reset
// always comes from the same call site — so draw i reuses slot i, and a
// slot grows only when a batch needs more than any batch before it. Shapes
// repeat, so after the first few batches a forward allocates no activation
// memory and the runtime zeroes none.
//
// Memory is handed out uninitialised: every producer writes its whole
// output, as GEMM write-backs, LayerNorm, the embedding sum, the row
// gather and ragged attention all do.
type workspace struct {
	slots [][]float32
	next  int
}

// take returns the next draw's slot sized to n elements.
func (w *workspace) take(n int) []float32 {
	if w.next == len(w.slots) {
		w.slots = append(w.slots, nil)
	}
	s := w.slots[w.next]
	if cap(s) < n {
		// Grow geometrically so a slowly rising batch size settles after a
		// few batches rather than reallocating on each.
		s = make([]float32, n, max(n, 2*cap(s)))
		w.slots[w.next] = s
	}
	w.next++
	return s[:n]
}

// ResetWorkspace starts a new evaluation forward on this context: what
// earlier forwards drew from the workspace is reused from here on, so
// every tensor they returned becomes invalid. model.BERT.EncodeEval and
// the model's other forward entry points call it; nothing else should. The
// workspace is created by the first call, so a context that never calls it
// allocates every activation with tensor.New.
func (c *Ctx) ResetWorkspace() {
	if c.ws == nil {
		c.ws = new(workspace)
	}
	c.ws.next = 0
}

// NewActivation returns a tensor for a forward-pass activation: drawn from
// the workspace in evaluation mode once ResetWorkspace has run, else a
// fresh zeroed tensor.New. A workspace tensor's contents are undefined, so
// the caller must write every element; it stays valid until the next
// ResetWorkspace.
func (c *Ctx) NewActivation(shape ...int) *tensor.Tensor {
	if c.Train || c.ws == nil {
		return tensor.New(shape...)
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	return tensor.Of(c.ws.take(n), shape...)
}
