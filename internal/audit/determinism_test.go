package audit

import (
	"fmt"
	"math"
	"reflect"
	"runtime"

	"demystbert/internal/device"
	"demystbert/internal/fusion"
	"demystbert/internal/kernels"
	"demystbert/internal/opgraph"
)

// Fixed-seed determinism pins. The engine's reproducibility claim is:
// identical seed and mode ⇒ bitwise-identical results. Forward, backward,
// dropout and data partition work disjointly with a fixed per-element
// order, and LAMB's float64 norms are one fixed fold (Pool.SumSquares),
// so nothing depends on the worker count either (the oracle comparisons in
// RunModes pin that separately, with zero tolerance on the naive path, and
// optim's TestLAMBTrajectoryWorkerInvariant for the update).

// determinismSteps is the pinned trajectory length.
const determinismSteps = 3

// DeterminismModes returns the mode points the trajectory pin runs at:
// every worker width on the forced fused route (the engine at every size)
// plus the oracle route, MP, and production routing (quick: fused only,
// FP32 only).
func DeterminismModes(quick bool) []Mode {
	workers := dedupInts([]int{1, 2, runtime.GOMAXPROCS(0)})
	var ms []Mode
	for _, w := range workers {
		ms = append(ms, Mode{Path: kernels.GEMMPathFused, Workers: w})
		if !quick {
			ms = append(ms, Mode{Path: kernels.GEMMPathNaive, Workers: w})
			ms = append(ms, Mode{Path: kernels.GEMMPathFused, Workers: w, MP: true})
			// Size-based routing must also replay bit-identically: the
			// route is a function of the shapes.
			ms = append(ms, Mode{Path: kernels.GEMMPathAuto, Workers: w})
		}
	}
	return ms
}

// CheckDeterminism re-runs a subject under identical mode+seed and demands
// bitwise-identical results: step subjects compare loss trajectories and
// final parameter fingerprints over determinismSteps LAMB steps; module
// subjects compare whole forward+backward traces.
func CheckDeterminism(s *Subject, m Mode) []Divergence {
	if s.Steps == nil {
		a := s.Run(m)
		b := s.Run(m)
		return compareTraces(s.Name+"/rerun", m, b, a, Tol{}, Tol{})
	}
	lossesA, fpA := s.Steps(m, determinismSteps)
	lossesB, fpB := s.Steps(m, determinismSteps)
	var divs []Divergence
	for i := range lossesA {
		if math.Float64bits(lossesA[i]) != math.Float64bits(lossesB[i]) {
			divs = append(divs, Divergence{s.Name, m, "determinism",
				fmt.Sprintf("loss[%d]", i),
				fmt.Sprintf("%v != %v across identical-seed runs", lossesA[i], lossesB[i])})
		}
	}
	if d := diffSlices(fpB, fpA, Tol{}); d != "" {
		divs = append(divs, Divergence{s.Name, m, "determinism", "params", d})
	}
	return divs
}

// CheckAnalyticModels pins the pure-function determinism of the analytical
// side of the codebase: the opgraph builder and the fusion studies must
// produce identical results for identical workloads (they feed the
// paper-facing tables, so nondeterminism there would corrupt reported
// numbers as surely as a kernel divergence).
func CheckAnalyticModels() []Divergence {
	var divs []Divergence
	w := opgraph.Workload{
		Name: "audit", Cfg: stepConfig(), B: stepB, SeqLen: stepN,
		Precision: opgraph.Mixed, CheckpointEvery: 1,
	}
	g1, g2 := opgraph.Build(w), opgraph.Build(w)
	if !reflect.DeepEqual(g1, g2) {
		divs = append(divs, Divergence{"opgraph.Build", Mode{}, "determinism", "graph",
			"two builds of the same workload differ"})
	}
	dev := device.Presets()[0]
	s1 := fusion.TransformerLayerNormStudy(w, dev)
	s2 := fusion.TransformerLayerNormStudy(w, dev)
	if s1 != s2 {
		divs = append(divs, Divergence{"fusion.TransformerLayerNormStudy", Mode{}, "determinism", "study",
			"two studies of the same workload differ"})
	}
	q1 := fusion.QKV(stepB*stepN, stepConfig().DModel, opgraph.Mixed, dev)
	q2 := fusion.QKV(stepB*stepN, stepConfig().DModel, opgraph.Mixed, dev)
	if q1 != q2 {
		divs = append(divs, Divergence{"fusion.QKV", Mode{}, "determinism", "study",
			"two studies of the same shape differ"})
	}
	return divs
}
