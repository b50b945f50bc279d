package kernels

import (
	"fmt"
	"math"
	"sync"
)

// Int8 quantized GEMM — the frozen-weight inference path. Weight matrices
// are quantized once per parameter generation with a static per-column
// (output-channel) scale; activations are quantized per call with a
// dynamic per-row scale; products accumulate in int32 and are dequantized
// (with the fused epilogue applied) at tile write-back. The scheme follows
// the pre-VNNI AVX2 compromise used by production int8 libraries:
//
//   - Activations: unsigned 8-bit with zero point 128,
//     qa = round(x/sa) + 128, sa = rowmax|x| / 127.
//   - Weights: signed 7-bit, qw = clamp(round(w/sb), ±63),
//     sb = colmax|w| / int8WeightMax.
//   - C[i][j] = sa[i]·sb[j]·(Σ_d qa[i][d]·qw[d][j] − 128·Σ_d qw[d][j]).
//
// The 7-bit weight clamp is what makes the AVX2 VPMADDUBSW kernel safe:
// the instruction pair-sums two u8×s8 products into a signed 16-bit lane,
// and 255·63·2 = 32130 < 2^15 cannot saturate, whereas full ±127 weights
// could. The per-column weight sums are precomputed at pack time so the
// zero-point correction costs one multiply-subtract per output element.
//
// Accumulation width: int32 holds Σ qa·qw exactly up to k ≈ 130 000
// (255·63·k < 2^31), far beyond any BERT dimension, so integer results
// are exact and bit-identical across backends and worker counts.

const (
	int8MR        = 4  // micro-tile rows
	int8NR        = 16 // micro-tile columns
	int8KGroup    = 4  // depth values per VPMADDUBSW/VPMADDWD reduction
	int8ActZero   = 128
	int8ActMax    = 127
	int8WeightMax = 63
)

// PackedBInt8 is a weight matrix quantized and packed for GEMMInt8. It is
// immutable after PackWeightInt8 returns and safe for concurrent readers.
type PackedBInt8 struct {
	transB bool
	n, k   int
	kg     int // depth groups: ceil(k/4)

	// qw holds ceil(n/16) panels of 16 columns; panel p, group g starts
	// at (p·kg + g)·64, laid out column-major within the group: byte
	// j·4+d is column p·16+j, depth g·4+d. Depth and column padding is
	// zero, so padded lanes contribute nothing to any product.
	qw     []int8
	scales []float32 // per-column dequantization scale sb
	colSum []int32   // per-column Σ_d qw[d][j], for the zero-point correction
}

// TransB reports the orientation the pack was built for.
func (pb *PackedBInt8) TransB() bool { return pb.transB }

// N returns the packed operand's column count.
func (pb *PackedBInt8) N() int { return pb.n }

// K returns the packed operand's depth.
func (pb *PackedBInt8) K() int { return pb.k }

// Matches reports whether the pack can serve a GEMMInt8 call with the
// given orientation and dimensions.
func (pb *PackedBInt8) Matches(transB bool, n, k int) bool {
	return pb != nil && pb.transB == transB && pb.n == n && pb.k == k
}

// PackWeightInt8 quantizes op(B) (K×N; stored K×N when transB is false,
// N×K when true) to signed 7-bit with per-column scales and packs it into
// the GEMMInt8 panel layout. Like PackWeight it costs one pass over the
// matrix; amortize it via the generation-counted cache (PackCache.GetInt8).
func PackWeightInt8(transB bool, n, k int, b []float32) *PackedBInt8 {
	if n < 0 || k < 0 {
		panic(fmt.Sprintf("kernels: PackWeightInt8 with negative dims n=%d k=%d", n, k))
	}
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: PackWeightInt8 B buffer %d < k*n=%d (transB=%v)", len(b), k*n, transB))
	}
	kg := (k + int8KGroup - 1) / int8KGroup
	panels := (n + int8NR - 1) / int8NR
	pb := &PackedBInt8{
		transB: transB,
		n:      n, k: k, kg: kg,
		qw:     make([]int8, panels*kg*int8NR*int8KGroup),
		scales: make([]float32, n),
		colSum: make([]int32, n),
	}
	// op(B)[d][j] = b[j*k+d] when transB (stored N×K), b[d*n+j] otherwise.
	parallelFor(n, k, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var maxAbs float32
			if transB {
				col := b[j*k : j*k+k]
				for _, v := range col {
					if a := abs32(v); a > maxAbs {
						maxAbs = a
					}
				}
			} else {
				for d := 0; d < k; d++ {
					if a := abs32(b[d*n+j]); a > maxAbs {
						maxAbs = a
					}
				}
			}
			var inv float32
			if maxAbs > 0 {
				pb.scales[j] = maxAbs / int8WeightMax
				inv = int8WeightMax / maxAbs
			}
			p, lane := j/int8NR, j%int8NR
			base := p * kg * int8NR * int8KGroup
			var sum int32
			for d := 0; d < k; d++ {
				var w float32
				if transB {
					w = b[j*k+d]
				} else {
					w = b[d*n+j]
				}
				q := int32(math.Round(float64(w * inv)))
				if q > int8WeightMax {
					q = int8WeightMax
				} else if q < -int8WeightMax {
					q = -int8WeightMax
				}
				sum += q
				g, sub := d/int8KGroup, d%int8KGroup
				pb.qw[base+g*int8NR*int8KGroup+lane*int8KGroup+sub] = int8(q)
			}
			pb.colSum[j] = sum
		}
	})
	return pb
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// int8SignMask clears an IEEE-754 sign bit; |x| of non-NaN floats then
// compares correctly as an unsigned integer, which lets the quantizer's
// max-scan run branch-free on bit patterns.
const int8SignMask = 0x7fffffff

// quantU8 maps a scaled activation (|x| ≤ int8ActMax by construction of
// the row scale) to its u8 code: the +0.5 after the zero-point shift
// makes int32 truncation round half-up, avoiding a per-element
// math.Round through float64. The clamp absorbs float rounding overshoot
// at the extremes.
func quantU8(x float32) uint8 {
	q := int32(x + (float32(int8ActZero) + 0.5))
	if q < 0 {
		q = 0
	} else if q > 255 {
		q = 255
	}
	return uint8(q)
}

// int8Kernel computes one 4×16 micro-tile over kg packed depth groups,
// overwriting acc (row-major [4][16] int32). Installed per backend:
// pure Go by default, AVX2 assembly on capable amd64 hosts. Integer
// accumulation is exact, so both backends produce identical bits.
var int8Kernel func(kg int, a []uint8, b []int8, acc *[int8MR * int8NR]int32) = gemmInt8Kernel4x16Go

// gemmInt8Kernel4x16Go is the portable micro-kernel and the cross-check
// oracle for the assembly one. a holds kg groups of 16 bytes (row r,
// depth d at g·16+r·4+d); b holds kg groups of 64 bytes (column j, depth
// d at g·64+j·4+d).
func gemmInt8Kernel4x16Go(kg int, a []uint8, b []int8, acc *[int8MR * int8NR]int32) {
	clear(acc[:])
	for g := 0; g < kg; g++ {
		ag := a[g*int8MR*int8KGroup:]
		bg := b[g*int8NR*int8KGroup:]
		for r := 0; r < int8MR; r++ {
			ar := ag[r*int8KGroup : r*int8KGroup+int8KGroup]
			accr := acc[r*int8NR : r*int8NR+int8NR]
			for j := 0; j < int8NR; j++ {
				bj := bg[j*int8KGroup : j*int8KGroup+int8KGroup]
				accr[j] += int32(ar[0])*int32(bj[0]) + int32(ar[1])*int32(bj[1]) +
					int32(ar[2])*int32(bj[2]) + int32(ar[3])*int32(bj[3])
			}
		}
	}
}

var int8AccPool = sync.Pool{New: func() any { return new([int8MR * int8NR]int32) }}

// GEMMInt8 computes C = dequant(quant(A) · pb) with the epilogue tail
// fused into the dequantizing write-back, overwriting C (beta = 0
// semantics, matching GEMMPackedEpilogue). A is the row-major m×k
// activation matrix in float32; it is quantized per call with dynamic
// per-row scales. ep may be nil (no tail).
//
// This is a forward-only inference path: results approximate the float32
// product with quantization error bounded by the per-row/per-column
// scales (audited against the f32 oracle at an empirically-grounded
// tolerance in internal/audit). Integer accumulation makes the result
// bitwise deterministic for any worker count and backend.
func GEMMInt8(m, n, k int, a []float32, pb *PackedBInt8, ep *Epilogue, c []float32) {
	if pb == nil {
		panic("kernels: GEMMInt8 with nil PackedBInt8")
	}
	if !pb.Matches(pb.transB, n, k) {
		panic(fmt.Sprintf("kernels: GEMMInt8 operand packed for n=%d k=%d, called with n=%d k=%d — repack required",
			pb.n, pb.k, n, k))
	}
	if m < 0 {
		panic(fmt.Sprintf("kernels: GEMMInt8 with negative m=%d", m))
	}
	if len(a) < m*k {
		panic(fmt.Sprintf("kernels: GEMMInt8 A buffer %d < m*k=%d", len(a), m*k))
	}
	if len(c) < m*n {
		panic(fmt.Sprintf("kernels: GEMMInt8 C buffer %d < m*n=%d", len(c), m*n))
	}
	if m == 0 || n == 0 {
		return
	}
	if ep != nil {
		ep.check(m, n)
	}
	if k == 0 {
		scaleC(c[:m*n], 0)
		if ep != nil {
			ep.applyReference(c, m, n)
		}
		return
	}
	int8GEMMRuns.Inc()

	kg := pb.kg
	rowPanels := (m + int8MR - 1) / int8MR
	qa := getScratchU8(rowPanels * kg * int8MR * int8KGroup)
	sa := getScratch(m)

	// Quantize the activations into 4-row micro-panels.
	qs := int8QuantPool.Get().(*int8QuantState)
	qs.a, qs.qa, qs.sa = a, *qa, *sa
	qs.m, qs.k, qs.kg = m, k, kg
	parallelRun(rowPanels, 4, qs)
	qs.a, qs.qa, qs.sa = nil, nil, nil
	int8QuantPool.Put(qs)

	// Tile grid: one work item per 4-row panel; each item sweeps all
	// column panels for its rows and applies the epilogue inline — rows
	// are complete when the item finishes them, so even the LayerNorm
	// row reduction runs while the rows are cache-hot.
	rs := int8RunPool.Get().(*int8RunState)
	rs.qa, rs.sa, rs.c = *qa, *sa, c
	rs.pb, rs.ep = pb, ep
	rs.m, rs.n = m, n
	parallelRun(rowPanels, 1, rs)
	rs.qa, rs.sa, rs.c, rs.pb, rs.ep = nil, nil, nil, nil, nil
	int8RunPool.Put(rs)

	putScratch(sa)
	putScratchU8(qa)
}

// int8QuantState is the pooled parallel-region body of the activation
// quantizer: item rp fills the 4-row micro-panel rp (zeroing padded rows
// and depths, so the kernel's padded lanes contribute nothing).
type int8QuantState struct {
	a  []float32
	qa []uint8
	sa []float32
	m, k, kg int
}

var int8QuantPool = sync.Pool{New: func() any { return new(int8QuantState) }}

func (s *int8QuantState) runRange(lo, hi int) {
	k, kg := s.k, s.kg
	panelBytes := kg * int8MR * int8KGroup
	for rp := lo; rp < hi; rp++ {
		panel := s.qa[rp*panelBytes : (rp+1)*panelBytes]
		clear(panel)
		rows := min(int8MR, s.m-rp*int8MR)
		for r := 0; r < rows; r++ {
			row := s.a[(rp*int8MR+r)*k : (rp*int8MR+r+1)*k]
			// Branch-free |max| scan on bit patterns; four independent
			// maxima break the loop-carried compare chain.
			var m0, m1, m2, m3 uint32
			d := 0
			for ; d+4 <= len(row); d += 4 {
				m0 = max(m0, math.Float32bits(row[d])&int8SignMask)
				m1 = max(m1, math.Float32bits(row[d+1])&int8SignMask)
				m2 = max(m2, math.Float32bits(row[d+2])&int8SignMask)
				m3 = max(m3, math.Float32bits(row[d+3])&int8SignMask)
			}
			for ; d < len(row); d++ {
				m0 = max(m0, math.Float32bits(row[d])&int8SignMask)
			}
			maxAbs := math.Float32frombits(max(m0, m1, m2, m3))
			base := r * int8KGroup
			if maxAbs == 0 {
				s.sa[rp*int8MR+r] = 0
				for g := 0; g < kg; g++ {
					off := g*int8MR*int8KGroup + base
					for sub := 0; sub < min(int8KGroup, k-g*int8KGroup); sub++ {
						panel[off+sub] = int8ActZero
					}
				}
				continue
			}
			s.sa[rp*int8MR+r] = maxAbs / int8ActMax
			inv := float32(int8ActMax) / maxAbs
			// Group-major quantize: each depth group is four contiguous
			// row elements written to four contiguous panel bytes, so the
			// inner body has no division or modulo.
			g, gFull := 0, k/int8KGroup
			for ; g < gFull; g++ {
				off := g*int8MR*int8KGroup + base
				d := g * int8KGroup
				panel[off] = quantU8(row[d] * inv)
				panel[off+1] = quantU8(row[d+1] * inv)
				panel[off+2] = quantU8(row[d+2] * inv)
				panel[off+3] = quantU8(row[d+3] * inv)
			}
			for d := gFull * int8KGroup; d < k; d++ {
				panel[g*int8MR*int8KGroup+base+d-gFull*int8KGroup] = quantU8(row[d] * inv)
			}
		}
	}
}

// int8RunState is the pooled parallel-region body of the int8 tile grid:
// item rp computes output rows [rp·4, rp·4+4) across all column panels
// and applies the epilogue to them.
type int8RunState struct {
	qa []uint8
	sa []float32
	c  []float32
	pb *PackedBInt8
	ep *Epilogue
	m, n int
}

var int8RunPool = sync.Pool{New: func() any { return new(int8RunState) }}

func (s *int8RunState) runRange(lo, hi int) {
	pb, ep, n := s.pb, s.ep, s.n
	kg := pb.kg
	aPanelBytes := kg * int8MR * int8KGroup
	bPanelBytes := kg * int8NR * int8KGroup
	colPanels := (n + int8NR - 1) / int8NR
	acc := int8AccPool.Get().(*[int8MR * int8NR]int32)
	kind := EpilogueNone
	if ep != nil {
		kind = ep.Kind
	}
	for rp := lo; rp < hi; rp++ {
		aPanel := s.qa[rp*aPanelBytes:]
		rows := min(int8MR, s.m-rp*int8MR)
		for p := 0; p < colPanels; p++ {
			int8Kernel(kg, aPanel, pb.qw[p*bPanelBytes:], acc)
			j0 := p * int8NR
			cols := min(int8NR, n-j0)
			for r := 0; r < rows; r++ {
				row := s.c[(rp*int8MR+r)*n:]
				accr := acc[r*int8NR:]
				sar := s.sa[rp*int8MR+r]
				switch kind {
				case EpilogueNone:
					for j := 0; j < cols; j++ {
						col := j0 + j
						row[col] = sar * pb.scales[col] * float32(accr[j]-int8ActZero*pb.colSum[col])
					}
				case EpilogueBias, EpilogueBiasGeLU:
					for j := 0; j < cols; j++ {
						col := j0 + j
						v := sar * pb.scales[col] * float32(accr[j]-int8ActZero*pb.colSum[col])
						row[col] = v + ep.Bias[col]
					}
				case EpilogueBiasResidualLayerNorm:
					res := ep.Residual[(rp*int8MR+r)*n:]
					for j := 0; j < cols; j++ {
						col := j0 + j
						v := sar * pb.scales[col] * float32(accr[j]-int8ActZero*pb.colSum[col])
						row[col] = (v + ep.Bias[col]) + res[col]
					}
				}
			}
		}
		if kind == EpilogueBiasGeLU || kind == EpilogueBiasResidualLayerNorm {
			// Rows are complete: save the pre-activation, then apply GeLU
			// or finalize LN, per row while cache-hot.
			for r := 0; r < rows; r++ {
				gr := rp*int8MR + r
				row := s.c[gr*n : (gr+1)*n]
				if ep.X != nil {
					copy(ep.X[gr*n:(gr+1)*n], row)
				}
				if kind == EpilogueBiasGeLU {
					geluSpan(row, row)
					continue
				}
				mu, istd := layerNormRowStats(row, ep.Eps)
				if ep.Mean != nil {
					ep.Mean[gr] = mu
					ep.InvStd[gr] = istd
				}
				layerNormRowApply(row, row, ep.Gamma, ep.Beta, mu, istd)
			}
		}
	}
	int8AccPool.Put(acc)
}
