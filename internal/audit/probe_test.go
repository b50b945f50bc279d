package audit

import (
	"math"
	"testing"

	"demystbert/internal/kernels"
)

// probeDiff measures the worst relative difference between two modes of a
// subject — instrumentation for grounding the tolerance table in DESIGN.md
// §10, and a canary that the harness is not passing because everything is
// accidentally bitwise.
func probeDiff(t *testing.T, s *Subject, a, b Mode) (maxRel float64, bitwise bool) {
	t.Helper()
	restore := a.apply()
	ta := s.Run(a)
	restore()
	restore = b.apply()
	tb := s.Run(b)
	restore()
	bitwise = true
	for name, va := range ta.Tensors {
		vb := tb.Tensors[name]
		for i := range va {
			if math.Float32bits(va[i]) != math.Float32bits(vb[i]) {
				bitwise = false
			}
			d := math.Abs(float64(va[i]) - float64(vb[i]))
			den := math.Max(math.Abs(float64(va[i])), math.Abs(float64(vb[i])))
			if den > 1e-12 && d/den > maxRel {
				maxRel = d / den
			}
		}
	}
	return maxRel, bitwise
}

// TestProbePathDeltas logs how far each route is from the oracle, and
// asserts the two facts the harness stands on: the forced routes reach the
// GEMMs — blocked differs from the naive oracle somewhere in every subject
// that runs a GEMM (and nowhere in one that runs none) — and fused ≡
// blocked, bitwise.
func TestProbePathDeltas(t *testing.T) {
	if testing.Short() {
		t.Skip("instrumentation probe")
	}
	naive := Mode{Path: kernels.GEMMPathNaive, Workers: 1}
	for _, s := range Subjects() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, m := range []Mode{
				{Path: kernels.GEMMPathNaive, Workers: 4},
				{Path: kernels.GEMMPathBlocked, Workers: 1},
				{Path: kernels.GEMMPathFused, Workers: 4},
				{Path: kernels.GEMMPathAuto, Workers: 4},
			} {
				rel, bw := probeDiff(t, s, m, naive)
				t.Logf("%-40s vs oracle: maxRel=%.3g bitwise=%v", m, rel, bw)
				if m.Path == kernels.GEMMPathBlocked && bw != s.NoGEMM {
					t.Errorf("%s vs oracle: bitwise=%v, want %v (NoGEMM=%v): the route did not reach the GEMMs as it should",
						m, bw, s.NoGEMM, s.NoGEMM)
				}
			}
			// Fused-vs-blocked bitwise claim: same panel geometry, same
			// micro-kernel schedule, same tail expressions.
			rel, bw := probeDiff(t, s,
				Mode{Path: kernels.GEMMPathFused, Workers: 2},
				Mode{Path: kernels.GEMMPathBlocked, Workers: 2})
			t.Logf("%-40s fused vs blocked: maxRel=%.3g bitwise=%v", s.Name, rel, bw)
			if !bw {
				t.Errorf("fused vs blocked: maxRel=%.3g, want bitwise", rel)
			}
			if s.HasAttention {
				base := Mode{Path: kernels.GEMMPathFused, Workers: 2}
				fused := base
				fused.Fused = true
				rel, bw = probeDiff(t, s, fused, base)
				t.Logf("%-40s fused vs unfused softmax: maxRel=%.3g bitwise=%v", s.Name, rel, bw)
			}
		})
	}
}
