// Package perfmodel times an operator graph (internal/opgraph) on a
// device model (internal/device) and aggregates the result into the
// breakdowns the paper reports: by layer class (Fig. 3), by operator
// category (Fig. 4), per-GEMM arithmetic intensity (Fig. 6), and achieved
// bandwidth per operator class (Fig. 7). It is the single-device
// counterpart of the analytical methodology the paper uses for
// multi-device projections (Section 5.1).
package perfmodel

import (
	"time"

	"demystbert/internal/device"
	"demystbert/internal/opgraph"
	"demystbert/internal/profile"
)

// OpTime is the modeled execution time of one Op entry.
type OpTime struct {
	Op        opgraph.Op
	PerLaunch time.Duration
	Total     time.Duration // PerLaunch × Repeat
}

// Result is a timed iteration.
type Result struct {
	Graph  *opgraph.Graph
	Device device.Device
	Ops    []OpTime
	Total  time.Duration
}

// Run times every op of the graph on the device.
func Run(g *opgraph.Graph, dev device.Device) *Result {
	r := &Result{Graph: g, Device: dev, Ops: make([]OpTime, 0, len(g.Ops))}
	p := g.Workload.Precision
	for _, op := range g.Ops {
		per := dev.OpTime(op, opPrecision(op, p))
		total := per * time.Duration(op.Repeat)
		r.Ops = append(r.Ops, OpTime{Op: op, PerLaunch: per, Total: total})
		r.Total += total
	}
	return r
}

// opPrecision returns the numeric mode an op runs at: optimizer kernels
// stay FP32 even in mixed-precision training.
func opPrecision(op opgraph.Op, p opgraph.Precision) opgraph.Precision {
	if op.Class == opgraph.ClassLAMB {
		return opgraph.FP32
	}
	return p
}

// ByClass aggregates time by the paper's Fig. 3 layer classes.
func (r *Result) ByClass() map[opgraph.LayerClass]time.Duration {
	m := make(map[opgraph.LayerClass]time.Duration)
	for _, t := range r.Ops {
		m[t.Op.Class] += t.Total
	}
	return m
}

// ByCategory aggregates time by operator category (Fig. 4 / Fig. 7).
func (r *Result) ByCategory() map[profile.Category]time.Duration {
	m := make(map[profile.Category]time.Duration)
	for _, t := range r.Ops {
		m[t.Op.Category] += t.Total
	}
	return m
}

// ClassShare returns class c's fraction of iteration time.
func (r *Result) ClassShare(c opgraph.LayerClass) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.ByClass()[c]) / float64(r.Total)
}

// CategoryShare returns category c's fraction of iteration time.
func (r *Result) CategoryShare(c profile.Category) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.ByCategory()[c]) / float64(r.Total)
}

// GEMMShare returns the fraction of time in GEMM kernels of any category,
// including the output layer's projections (Section 3.2.2's "55% in FP32
// and 36% in MP").
func (r *Result) GEMMShare() float64 {
	if r.Total == 0 {
		return 0
	}
	var d time.Duration
	for _, t := range r.Ops {
		if t.Op.GEMM != nil {
			d += t.Total
		}
	}
	return float64(d) / float64(r.Total)
}

// AttentionOpsShare returns the fraction spent in the actual attention
// operation — the batched GEMMs plus the scale/mask/softmax/dropout
// pipeline (Takeaway 4's "7% in FP32, 9% in MP").
func (r *Result) AttentionOpsShare() float64 {
	return r.CategoryShare(profile.CatAttnBGEMM) + r.CategoryShare(profile.CatScaleMaskSM)
}

// LinearFCShare returns the fraction spent in linear and FC GEMM kernels
// (Obs. 2's "57% FP32" / Takeaway 3's "42% MP").
func (r *Result) LinearFCShare() float64 {
	return r.CategoryShare(profile.CatLinear) + r.CategoryShare(profile.CatFCGEMM)
}

// LAMBShare returns the optimizer's fraction of iteration time.
func (r *Result) LAMBShare() float64 {
	return r.CategoryShare(profile.CatLAMBStage1) + r.CategoryShare(profile.CatLAMBStage2)
}

// KernelCount returns total kernel launches.
func (r *Result) KernelCount() int { return r.Graph.KernelCount() }

// CategoryBW returns, per category, the time-weighted achieved bandwidth
// in bytes/s — Fig. 7's measured bandwidth requirement.
func (r *Result) CategoryBW() map[profile.Category]float64 {
	bytes := make(map[profile.Category]int64)
	times := make(map[profile.Category]time.Duration)
	for _, t := range r.Ops {
		bytes[t.Op.Category] += t.Op.TotalBytes()
		times[t.Op.Category] += t.Total
	}
	out := make(map[profile.Category]float64)
	for c, b := range bytes {
		if times[c] > 0 {
			out[c] = float64(b) / times[c].Seconds()
		}
	}
	return out
}

// CategoryIntensity returns, per category, the aggregate arithmetic
// intensity in FLOPs/byte (Fig. 7's ops/byte series).
func (r *Result) CategoryIntensity() map[profile.Category]float64 {
	flops := make(map[profile.Category]int64)
	bytes := make(map[profile.Category]int64)
	for _, t := range r.Ops {
		flops[t.Op.Category] += t.Op.TotalFLOPs()
		bytes[t.Op.Category] += t.Op.TotalBytes()
	}
	out := make(map[profile.Category]float64)
	for c, b := range bytes {
		if b > 0 {
			out[c] = float64(flops[c]) / float64(b)
		}
	}
	return out
}

// TokensPerSecond returns the modeled training throughput in tokens per
// second — the quantity the paper's Section 3.3.1 trades against
// convergence when choosing B and n.
func (r *Result) TokensPerSecond() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Graph.Workload.Tokens()) / r.Total.Seconds()
}

// PhaseTime returns the modeled time of one training phase.
func (r *Result) PhaseTime(ph profile.Phase) time.Duration {
	var d time.Duration
	for _, t := range r.Ops {
		if t.Op.Phase == ph {
			d += t.Total
		}
	}
	return d
}
