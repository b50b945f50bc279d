package kernels

import (
	"math"
	"testing"

	"demystbert/internal/tensor"
)

// refEpilogue applies the unfused reference tail to c in plain serial Go:
// the independent oracle for both the fused write-back and applyReference.
func refEpilogue(ep *Epilogue, c []float32, m, n int) {
	switch ep.Kind {
	case EpilogueNone:
	case EpilogueBias:
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				c[i*n+j] += ep.Bias[j]
			}
		}
	case EpilogueBiasGeLU:
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				pre := c[i*n+j] + ep.Bias[j]
				if ep.X != nil {
					ep.X[i*n+j] = pre
				}
				c[i*n+j] = geluScalar(pre)
			}
		}
	case EpilogueBiasResidualLayerNorm:
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				c[i*n+j] = (c[i*n+j] + ep.Bias[j]) + ep.Residual[i*n+j]
			}
		}
		for i := 0; i < m; i++ {
			row := c[i*n : (i+1)*n]
			if ep.X != nil {
				copy(ep.X[i*n:(i+1)*n], row)
			}
			mu, istd := layerNormRowStats(row, ep.Eps)
			if ep.Mean != nil {
				ep.Mean[i] = mu
				ep.InvStd[i] = istd
			}
			layerNormRowApply(row, row, ep.Gamma, ep.Beta, mu, istd)
		}
	}
}

// makeEpilogue builds a randomized epilogue of the given kind for an m×n
// output, with save buffers when withSaves is set.
func makeEpilogue(r *tensor.RNG, kind EpilogueKind, m, n int, withSaves bool) *Epilogue {
	ep := &Epilogue{Kind: kind}
	if kind != EpilogueNone {
		ep.Bias = randSlice(r, n)
	}
	if kind == EpilogueBiasResidualLayerNorm {
		ep.Residual = randSlice(r, m*n)
		ep.Gamma = randSlice(r, n)
		ep.Beta = randSlice(r, n)
		for j := range ep.Gamma {
			ep.Gamma[j] += 1.5 // keep the affine away from degenerate zero
		}
		ep.Eps = 1e-5
	}
	if withSaves {
		if kind == EpilogueBiasGeLU || kind == EpilogueBiasResidualLayerNorm {
			ep.X = make([]float32, m*n)
		}
		if kind == EpilogueBiasResidualLayerNorm {
			ep.Mean = make([]float32, m)
			ep.InvStd = make([]float32, m)
		}
	}
	return ep
}

func cloneEpilogue(ep *Epilogue, m, n int) *Epilogue {
	cp := *ep
	if ep.X != nil {
		cp.X = make([]float32, m*n)
	}
	if ep.Mean != nil {
		cp.Mean = make([]float32, m)
		cp.InvStd = make([]float32, m)
	}
	return &cp
}

var epilogueKinds = []EpilogueKind{EpilogueBias, EpilogueBiasGeLU, EpilogueBiasResidualLayerNorm}

// TestGEMMPackedEpilogueMatchesReference checks every kind and a spread of
// shapes (micro-tile remainders, multi-stripe m, multi-segment n) against
// a serial f64-free reference built from the same scalar helpers.
func TestGEMMPackedEpilogueMatchesReference(t *testing.T) {
	r := tensor.NewRNG(41)
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {6, 16, 8}, {7, 17, 33},
		{64, 64, 64}, {129, 96, 65}, {37, 200, 48},
	}
	for _, kind := range epilogueKinds {
		for _, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2]
			a := randSlice(r, m*k)
			b := randSlice(r, k*n)
			pb := PackWeight(false, n, k, b)
			ep := makeEpilogue(r, kind, m, n, true)

			got := make([]float32, m*n)
			GEMMPathAuto.GEMMPackedEpilogue(false, m, n, k, 1, a, pb, ep, got)

			want := make([]float32, m*n)
			refGEMM(false, false, m, n, k, 1, a, b, 0, want)
			wep := cloneEpilogue(ep, m, n)
			refEpilogue(wep, want, m, n)

			if d := maxAbsDiff(got, want); d > 2e-4 {
				t.Errorf("%s %dx%dx%d: output max diff %v", kind, m, n, k, d)
			}
			if ep.X != nil {
				if d := maxAbsDiff(ep.X, wep.X); d > 2e-4 {
					t.Errorf("%s %dx%dx%d: X save max diff %v", kind, m, n, k, d)
				}
			}
			if ep.Mean != nil {
				if d := maxAbsDiff(ep.Mean, wep.Mean); d > 1e-4 {
					t.Errorf("%s %dx%dx%d: Mean max diff %v", kind, m, n, k, d)
				}
				if d := maxAbsDiff(ep.InvStd, wep.InvStd); d > 1e-2 {
					t.Errorf("%s %dx%dx%d: InvStd max diff %v", kind, m, n, k, d)
				}
			}
		}
	}
}

// TestGEMMPackedEpilogueFusedBitwiseUnfused pins the core numerics
// contract: the fused write-back and the unfused sequence — the same
// pre-packed product, then the reference tail as separate element-wise
// passes — produce bit-identical outputs and save buffers on the same
// backend, whether the fused engine reads pre-packed panels or, handed an
// un-built operand (a pack-cache first use), packs them per call. The
// forced fused path keeps the smallest shape on the engine; the widest
// crosses both the NC column-block and the KC depth-block boundary, so the
// per-call leg applies its tail from more than one column block.
func TestGEMMPackedEpilogueFusedBitwiseUnfused(t *testing.T) {
	forEachKernel(t, "", func(t *testing.T) {
		r := tensor.NewRNG(42)
		for _, kind := range epilogueKinds {
			for i, sh := range [][3]int{{7, 17, 33}, {64, 64, 64}, {130, 96, 96}, {33, 257, 48}, {9, gemmNC + 52, gemmKC + 44}} {
				m, n, k := sh[0], sh[1], sh[2]
				tb := i%2 == 1
				a := randSlice(r, m*k)
				b := randSlice(r, k*n)
				built := PackWeight(tb, n, k, b)
				ep := makeEpilogue(r, kind, m, n, true)

				unfused := make([]float32, m*n)
				uep := cloneEpilogue(ep, m, n)
				GEMMPathFused.GEMMPacked(false, m, n, k, 1, a, built, 0, unfused)
				uep.applyReference(unfused, m, n)

				for _, leg := range []struct {
					name string
					pb   *PackedB
				}{{"pre-packed panels", built}, {"per-call panels", describeWeight(tb, n, k, b)}} {
					fep := cloneEpilogue(ep, m, n)
					fused := make([]float32, m*n)
					if d := counterDelta(epilogueReferenceRuns, func() {
						GEMMPathFused.GEMMPackedEpilogue(false, m, n, k, 1, a, leg.pb, fep, fused)
					}); d != 0 {
						t.Fatalf("%s, %s %dx%dx%d: ran the reference tail", leg.name, kind, m, n, k)
					}
					for i := range fused {
						if math.Float32bits(fused[i]) != math.Float32bits(unfused[i]) {
							t.Fatalf("%s, %s %dx%dx%d: fused/unfused diverge at %d: %v vs %v",
								leg.name, kind, m, n, k, i, fused[i], unfused[i])
						}
					}
					for i := range fep.X {
						if math.Float32bits(fep.X[i]) != math.Float32bits(uep.X[i]) {
							t.Fatalf("%s, %s %dx%dx%d: X saves diverge at %d", leg.name, kind, m, n, k, i)
						}
					}
					for i := range fep.Mean {
						if math.Float32bits(fep.Mean[i]) != math.Float32bits(uep.Mean[i]) ||
							math.Float32bits(fep.InvStd[i]) != math.Float32bits(uep.InvStd[i]) {
							t.Fatalf("%s, %s %dx%dx%d: LN stats diverge at row %d", leg.name, kind, m, n, k, i)
						}
					}
				}
			}
		}
	})
}

// TestGEMMPackedEpilogueWorkerInvariance: fused results must not depend on
// the worker count (tile grids partition work; no cross-tile reductions).
func TestGEMMPackedEpilogueWorkerInvariance(t *testing.T) {
	r := tensor.NewRNG(43)
	m, n, k := 65, 96, 64
	a := randSlice(r, m*k)
	b := randSlice(r, k*n)
	pb := PackWeight(false, n, k, b)
	for _, kind := range epilogueKinds {
		ep := makeEpilogue(r, kind, m, n, false)
		ref := make([]float32, m*n)
		old := SetMaxWorkers(1)
		GEMMPathAuto.GEMMPackedEpilogue(false, m, n, k, 1, a, pb, ep, ref)
		for _, w := range []int{2, 4, 7} {
			SetMaxWorkers(w)
			got := make([]float32, m*n)
			GEMMPathAuto.GEMMPackedEpilogue(false, m, n, k, 1, a, pb, ep, got)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("%s: workers=%d diverges from workers=1 at %d", kind, w, i)
				}
			}
		}
		SetMaxWorkers(old)
	}
}

// TestGEMMPackedEpilogueNilAndNone: nil epilogue and EpilogueNone behave
// exactly like GEMMPacked with beta=0.
func TestGEMMPackedEpilogueNilAndNone(t *testing.T) {
	r := tensor.NewRNG(44)
	m, n, k := 15, 20, 12
	a := randSlice(r, m*k)
	b := randSlice(r, k*n)
	pb := PackWeight(false, n, k, b)
	want := make([]float32, m*n)
	GEMMPacked(false, m, n, k, 1, a, pb, 0, want)
	for _, ep := range []*Epilogue{nil, {Kind: EpilogueNone}} {
		got := randSlice(r, m*n) // pre-filled garbage must be overwritten
		GEMMPathAuto.GEMMPackedEpilogue(false, m, n, k, 1, a, pb, ep, got)
		if d := maxAbsDiff(got, want); d != 0 {
			t.Fatalf("nil/none epilogue differs from GEMMPacked by %v", d)
		}
	}
}

// TestGEMMPackedEpilogueQuickReturns: k==0 and alpha==0 still define the
// full output through the epilogue.
func TestGEMMPackedEpilogueQuickReturns(t *testing.T) {
	r := tensor.NewRNG(45)
	m, n := 6, 10
	bias := randSlice(r, n)
	pb := PackWeight(false, n, 0, nil)
	c := randSlice(r, m*n)
	GEMMPathAuto.GEMMPackedEpilogue(false, m, n, 0, 1, nil, pb, &Epilogue{Kind: EpilogueBias, Bias: bias}, c)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if c[i*n+j] != bias[j] {
				t.Fatalf("k=0 bias epilogue: c[%d][%d] = %v, want %v", i, j, c[i*n+j], bias[j])
			}
		}
	}
}

// TestGEMMPackedEpilogueAllPathsAgree runs every forced route on
// the same problem; forced unfused paths are comparators for the fused
// engine, so all must agree within float tolerance.
func TestGEMMPackedEpilogueAllPathsAgree(t *testing.T) {
	r := tensor.NewRNG(46)
	m, n, k := 48, 80, 56
	a := randSlice(r, m*k)
	b := randSlice(r, k*n)
	pb := PackWeight(false, n, k, b)
	ep := makeEpilogue(r, EpilogueBiasResidualLayerNorm, m, n, false)
	ref := make([]float32, m*n)
	GEMMPathNaive.GEMMPackedEpilogue(false, m, n, k, 1, a, pb, ep, ref)
	for _, p := range []GEMMPath{GEMMPathBlocked, GEMMPathFused, GEMMPathAuto} {
		got := make([]float32, m*n)
		p.GEMMPackedEpilogue(false, m, n, k, 1, a, pb, ep, got)
		// LN divides by the row scale, so agreement within 1e-4 is tight.
		if d := maxAbsDiff(got, ref); d > 1e-4 {
			t.Errorf("path %v disagrees with naive by %v", p, d)
		}
	}
}

// TestGEMMPackedEpilogueZeroAlloc: the fused engine must be allocation-free
// in steady state for all kinds, including LN row finalization.
func TestGEMMPackedEpilogueZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	r := tensor.NewRNG(48)
	m, n, k := 128, 128, 128
	a := randSlice(r, m*k)
	c := make([]float32, m*n)
	old := SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	forEachKernel(t, "", func(t *testing.T) {
		b := randSlice(r, k*n)
		for _, leg := range []struct {
			name string
			pb   *PackedB
		}{{"pre-packed panels", PackWeight(false, n, k, b)}, {"per-call panels", describeWeight(false, n, k, b)}} {
			for _, kind := range epilogueKinds {
				ep := makeEpilogue(r, kind, m, n, true)
				GEMMPathAuto.GEMMPackedEpilogue(false, m, n, k, 1, a, leg.pb, ep, c) // warm pools
				if avg := testing.AllocsPerRun(10, func() {
					GEMMPathAuto.GEMMPackedEpilogue(false, m, n, k, 1, a, leg.pb, ep, c)
				}); avg != 0 {
					t.Errorf("%s, %s: fused epilogue allocates %v per op in steady state, want 0", leg.name, kind, avg)
				}
			}
		}
	})
}
