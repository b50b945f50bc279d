// Package data generates synthetic BERT pre-training batches. The paper
// profiles one steady-state iteration of Wikipedia pre-training; iteration
// cost depends only on the batch geometry (B, n) and vocabulary size, not
// on token values, so deterministic synthetic batches exercise the
// identical code path (see DESIGN.md substitution table).
package data

import (
	"fmt"

	"demystbert/internal/kernels"
	"demystbert/internal/tensor"
)

// Special token ids, mirroring BERT's WordPiece conventions. Id 0 is
// [PAD], which no batch here contains: generated sequences are full and
// serving batches are ragged.
const (
	ClsID  = 1
	SepID  = 2
	MaskID = 3
	// FirstWordID is the first id usable for ordinary words.
	FirstWordID = 4
)

// Batch is one pre-training mini-batch of B sequences of n tokens.
type Batch struct {
	B, N int

	// Tokens and Segments are row-major [B·n] id arrays. Every sequence
	// begins with [CLS] and contains a [SEP] between its two sentences.
	Tokens   []int
	Segments []int

	// MLMTargets holds the original token id at masked positions and
	// kernels.IgnoreIndex elsewhere (masked-word prediction task).
	MLMTargets []int

	// NSPLabels (length B) are the next-sentence-prediction labels.
	NSPLabels []int

	// Mask is the additive [B, n] attention mask: 0 for real tokens,
	// -1e9 for padding.
	Mask *tensor.Tensor
}

// Ragged is a padding-free evaluation batch: the concatenation of its
// sequences' real tokens. Sequence s owns entries Offsets[s]..Offsets[s+1]
// of Tokens and Segments, and its positions restart at 0. The model
// stacks every token vector into one [T, d] matrix anyway (Section
// 3.2.2), so only attention needs Offsets; there are no pad slots and no
// mask. The zero value is an empty batch ready for Append.
type Ragged struct {
	Tokens   []int
	Segments []int
	// Offsets has one entry more than the batch has sequences, ascending
	// from 0 to len(Tokens).
	Offsets []int
}

// B returns the number of sequences.
func (r *Ragged) B() int { return max(len(r.Offsets)-1, 0) }

// Reset empties the batch and keeps its buffers.
func (r *Ragged) Reset() {
	r.Tokens, r.Segments, r.Offsets = r.Tokens[:0], r.Segments[:0], r.Offsets[:0]
}

// Append adds one sequence. Nil segments put every token in sentence A.
func (r *Ragged) Append(tokens, segments []int) {
	if segments != nil && len(segments) != len(tokens) {
		panic(fmt.Sprintf("data: Ragged.Append got %d segments for %d tokens", len(segments), len(tokens)))
	}
	if len(r.Offsets) == 0 {
		r.Offsets = append(r.Offsets, 0)
	}
	r.Tokens = append(r.Tokens, tokens...)
	if segments == nil {
		r.Segments = append(r.Segments, make([]int, len(tokens))...)
	} else {
		r.Segments = append(r.Segments, segments...)
	}
	r.Offsets = append(r.Offsets, len(r.Tokens))
}

// Generator produces deterministic synthetic batches.
type Generator struct {
	vocab    int
	maskProb float32
	rng      *tensor.RNG
}

// NewGenerator returns a generator over the given vocabulary size, masking
// maskProb of the tokens (BERT uses 0.15).
func NewGenerator(vocab int, maskProb float32, seed uint64) *Generator {
	if vocab <= FirstWordID {
		panic(fmt.Sprintf("data: vocab %d must exceed the %d special ids", vocab, FirstWordID))
	}
	if maskProb < 0 || maskProb >= 1 {
		panic(fmt.Sprintf("data: mask probability %v outside [0,1)", maskProb))
	}
	return &Generator{vocab: vocab, maskProb: maskProb, rng: tensor.NewRNG(seed)}
}

// Next generates a batch of b full-length sequences of n tokens.
func (g *Generator) Next(b, n int) *Batch {
	if b <= 0 || n < 4 {
		panic(fmt.Sprintf("data: batch %dx%d too small (need n >= 4 for CLS/SEP structure)", b, n))
	}
	batch := &Batch{
		B:          b,
		N:          n,
		Tokens:     make([]int, b*n),
		Segments:   make([]int, b*n),
		MLMTargets: make([]int, b*n),
		NSPLabels:  make([]int, b),
		Mask:       tensor.New(b, n),
	}
	for i := range batch.MLMTargets {
		batch.MLMTargets[i] = kernels.IgnoreIndex
	}
	for s := 0; s < b; s++ {
		base := s * n
		// Sentence A occupies [1, sep); sentence B occupies (sep, n).
		sep := 1 + (n-2)/2
		batch.Tokens[base] = ClsID
		for i := 1; i < n; i++ {
			if i == sep {
				batch.Tokens[base+i] = SepID
			} else {
				batch.Tokens[base+i] = FirstWordID + g.rng.Intn(g.vocab-FirstWordID)
			}
			if i > sep {
				batch.Segments[base+i] = 1
			}
		}
		batch.NSPLabels[s] = g.rng.Intn(2)

		// Mask ordinary word positions. BERT's 80/10/10 rule: 80% become
		// [MASK], 10% a random token, 10% unchanged.
		for i := 1; i < n; i++ {
			if i == sep || g.rng.Float32() >= g.maskProb {
				continue
			}
			batch.MLMTargets[base+i] = batch.Tokens[base+i]
			switch r := g.rng.Float32(); {
			case r < 0.8:
				batch.Tokens[base+i] = MaskID
			case r < 0.9:
				batch.Tokens[base+i] = FirstWordID + g.rng.Intn(g.vocab-FirstWordID)
			}
		}
	}
	return batch
}

// Slice returns the contiguous sub-batch of sequences [lo, hi) as views
// into the receiver's arrays — no copies, so a micro-batch loop over
// slices touches the exact memory a full-batch step would. Gradient
// accumulation (model.StepAccum) walks a batch with this.
func (b *Batch) Slice(lo, hi int) *Batch {
	if lo < 0 || hi > b.B || lo >= hi {
		panic(fmt.Sprintf("data: Slice [%d,%d) outside batch of %d", lo, hi, b.B))
	}
	n := b.N
	return &Batch{
		B:          hi - lo,
		N:          n,
		Tokens:     b.Tokens[lo*n : hi*n],
		Segments:   b.Segments[lo*n : hi*n],
		MLMTargets: b.MLMTargets[lo*n : hi*n],
		NSPLabels:  b.NSPLabels[lo:hi],
		Mask:       tensor.Of(b.Mask.Data()[lo*n:hi*n], hi-lo, n),
	}
}

// MaskedCount returns the number of positions scored by the MLM loss.
func (b *Batch) MaskedCount() int {
	c := 0
	for _, t := range b.MLMTargets {
		if t != kernels.IgnoreIndex {
			c++
		}
	}
	return c
}
