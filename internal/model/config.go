// Package model assembles the full BERT pre-training network of Fig. 2:
// the embedding layer, N Transformer encoder layers, and the output heads
// for the two unsupervised tasks (masked-word prediction and next-sentence
// prediction), with a complete hand-written backward pass and optional
// activation checkpointing.
package model

import (
	"fmt"
	"math"
)

// Config holds BERT's hyperparameters using the paper's symbols
// (Table 2a): N Transformer layers of hidden size d_model with h attention
// heads and intermediate dimension d_ff.
type Config struct {
	Vocab     int
	MaxPos    int
	NumLayers int // N
	DModel    int // d_model
	Heads     int // h
	DFF       int // d_ff, usually 4·d_model
	DropProb  float32

	// Causal turns every layer's attention into decoder-style masked
	// attention (GPT-family networks, Section 2.3). It zeros certain
	// matrix elements but changes no kernel shapes, which is why the
	// paper's training characterization covers decoders too.
	Causal bool
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Vocab < 8:
		return fmt.Errorf("model: vocab %d too small", c.Vocab)
	case c.MaxPos < 4:
		return fmt.Errorf("model: max position %d too small", c.MaxPos)
	case c.NumLayers < 1:
		return fmt.Errorf("model: layer count %d < 1", c.NumLayers)
	case c.DModel < 1 || c.Heads < 1 || c.DModel%c.Heads != 0:
		return fmt.Errorf("model: d_model %d not divisible by %d heads", c.DModel, c.Heads)
	case c.DFF < 1:
		return fmt.Errorf("model: d_ff %d < 1", c.DFF)
	case !(c.DropProb >= 0 && c.DropProb < 1): // NaN too
		return fmt.Errorf("model: dropout %v outside [0,1)", c.DropProb)
	}
	return nil
}

// BERTLarge is the configuration the paper studies (Section 3.1.3):
// 24 layers, d_model 1024, 16 heads, d_ff 4096, ~340M parameters.
func BERTLarge() Config {
	return Config{Vocab: 30522, MaxPos: 512, NumLayers: 24, DModel: 1024, Heads: 16, DFF: 4096, DropProb: 0.1}
}

// BERTBase is the smaller published configuration: 12 layers, d_model 768,
// 12 heads (~110M parameters).
func BERTBase() Config {
	return Config{Vocab: 30522, MaxPos: 512, NumLayers: 12, DModel: 768, Heads: 12, DFF: 3072, DropProb: 0.1}
}

// MegatronBERT approximates the paper's C3 configuration (Fig. 9): a
// Megatron-LM-like model with 2× BERT-Large's hidden dimension.
func MegatronBERT() Config {
	return Config{Vocab: 30522, MaxPos: 512, NumLayers: 24, DModel: 2048, Heads: 32, DFF: 8192, DropProb: 0.1}
}

// GPTMedium approximates a GPT-2-Medium-class decoder: the same
// Transformer geometry as BERT-Large with causal attention and a larger
// vocabulary. Training cost structure matches the encoder, as Section 2.3
// observes.
func GPTMedium() Config {
	return Config{Vocab: 50260, MaxPos: 1024, NumLayers: 24, DModel: 1024, Heads: 16, DFF: 4096, DropProb: 0.1, Causal: true}
}

// Tiny returns a reduced-scale configuration the pure-Go engine can train
// quickly; used by tests, examples, and benches.
func Tiny() Config {
	return Config{Vocab: 1000, MaxPos: 64, NumLayers: 2, DModel: 64, Heads: 4, DFF: 256, DropProb: 0.1}
}

// ParamCount returns the exact trainable-parameter count of the
// configuration, matching Params() of a constructed model.
func (c Config) ParamCount() int {
	n, _ := c.paramCountWithin(math.MaxInt)
	return n
}

// paramCountWithin evaluates ParamCount in arithmetic that gives up, rather
// than overflow, once a partial result passes limit: ok is false then. A
// validated configuration's dimensions are positive, so every partial
// result is at most the total. Load uses it on a header's 31-bit fields.
func (c Config) paramCountWithin(limit int) (n int, ok bool) {
	k := checkedInt{limit: limit}
	d, ff := c.DModel, c.DFF
	// Embeddings: token + position + segment tables and LN.
	emb := k.add(k.mul(k.add(c.Vocab, c.MaxPos+2), d), 2*d)
	// Per encoder layer: 4 projections (d·d+d), FC1 (d·ff+ff),
	// FC2 (ff·d+d), 2 LayerNorms (2d each).
	dd, dff := k.mul(d, d), k.mul(d, ff)
	layer := k.add(k.add(k.mul(4, k.add(dd, d)), k.add(dff, ff)), k.add(k.add(dff, d), 4*d))
	// Heads: MLM dense (d·d+d) + LN (2d) + decoder bias (vocab; the
	// decoder weight is tied to the token embedding) + pooler (d·d+d) +
	// NSP classifier (2d+2).
	heads := k.add(k.add(k.mul(2, k.add(dd, d)), 4*d+2), c.Vocab)
	n = k.add(k.add(emb, k.mul(c.NumLayers, layer)), heads)
	return n, !k.over
}

// checkedInt is non-negative int arithmetic that latches over, and yields
// 0, once a result would exceed limit.
type checkedInt struct {
	limit int
	over  bool
}

func (k *checkedInt) mul(a, b int) int {
	if a < 0 || b < 0 || (a != 0 && b > k.limit/a) {
		k.over = true
		return 0
	}
	return a * b
}

func (k *checkedInt) add(a, b int) int {
	if a < 0 || b < 0 || a > k.limit-b {
		k.over = true
		return 0
	}
	return a + b
}
