// Package dist implements the paper's multi-device analytical models
// (Section 5.1): per-device execution profiles for data-parallel training
// with and without compute/communication overlap, and for Megatron-style
// m-way tensor slicing, all built from single-device model results exactly
// as the paper builds its profiles from single-GPU measurements.
package dist

import (
	"fmt"
	"time"

	"demystbert/internal/device"
	"demystbert/internal/opgraph"
	"demystbert/internal/perfmodel"
	"demystbert/internal/profile"
)

// RingAllReduce returns the time to all-reduce `bytes` across `devices`
// peers with the ring algorithm (the paper's [28]): each device sends and
// receives 2·(D-1)/D of the buffer over its link, plus 2·(D-1) step
// latencies.
func RingAllReduce(bytes int64, devices int, dev device.Device) time.Duration {
	return ringTime(bytes, devices, dev.Interconnect, dev.InterconnectLatency)
}

// ringTime is the ring all-reduce cost model over an explicit link:
// 2·(D-1)/D of the buffer crosses each link, plus 2·(D-1) per-step
// latencies. Shared by the device-based Fig. 11 profiles and the
// measured-link predictions (PredictDP).
func ringTime(bytes int64, devices int, bandwidth float64, latency time.Duration) time.Duration {
	if devices <= 1 || bytes <= 0 {
		return 0
	}
	d := float64(devices)
	transfer := 2 * (d - 1) / d * float64(bytes) / bandwidth
	steps := time.Duration(2*(devices-1)) * latency
	return time.Duration(transfer*1e9)*time.Nanosecond + steps
}

// Profile is a per-device iteration breakdown in a distributed setting —
// one bar of Fig. 11.
type Profile struct {
	Name    string
	Devices int

	// Compute is the per-class on-device time (Fig. 11's compute
	// segments).
	Compute map[opgraph.LayerClass]time.Duration
	// Comm is the exposed (non-overlapped) communication time.
	Comm time.Duration
	// HiddenComm is communication fully overlapped with computation.
	HiddenComm time.Duration

	Total time.Duration
}

// CommShare returns exposed communication's fraction of iteration time.
func (p Profile) CommShare() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Comm) / float64(p.Total)
}

// Share returns a compute class's fraction of iteration time.
func (p Profile) Share(c opgraph.LayerClass) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Compute[c]) / float64(p.Total)
}

// SingleGPU wraps a single-device result as a Fig. 11 profile (bar S1).
func SingleGPU(name string, r *perfmodel.Result) Profile {
	return Profile{
		Name:    name,
		Devices: 1,
		Compute: r.ByClass(),
		Total:   r.Total,
	}
}

// gradGroup is one unit of backward computation whose gradients can be
// communicated independently (the paper overlaps per-layer gradients with
// the preceding layer's backprop).
type gradGroup struct {
	bwd  time.Duration // backward compute time of the group
	comm time.Duration // AllReduce time of its gradients
}

// scheduleComm plays the backward pass against the link. With overlap, a
// group's AllReduce starts once its backward completes and the link is
// free; communication beyond the end of backprop is exposed (Section
// 5.1's "maximum of the computation and communication times for every
// pair of consecutive layers"). Without overlap everything is exposed.
// Shared by the analytical Fig. 11 profiles and the measured-bucket
// predictions (PredictDP), so model and measurement disagree only about
// inputs, never about scheduling.
func scheduleComm(groups []gradGroup, overlap bool) (exposed, hidden, commTotal time.Duration) {
	if overlap {
		var t, linkFree time.Duration
		for _, g := range groups {
			t += g.bwd
			start := t
			if linkFree > start {
				start = linkFree
			}
			linkFree = start + g.comm
			commTotal += g.comm
		}
		if linkFree > t {
			exposed = linkFree - t
		}
		hidden = commTotal - exposed
		return exposed, hidden, commTotal
	}
	for _, g := range groups {
		commTotal += g.comm
	}
	return commTotal, 0, commTotal
}

// DataParallel models D-way data parallelism over the single-device
// result r. With overlap, each group's gradient AllReduce proceeds
// concurrently with the remaining backprop; only communication that
// outlives the backward pass is exposed (Section 5.1's "maximum of the
// computation and communication times for every pair of consecutive
// layers"). Without overlap, all gradient communication serializes after
// backprop (Fig. 11's D1).
func DataParallel(name string, r *perfmodel.Result, devices int, overlap bool) Profile {
	w := r.Graph.Workload
	dev := r.Device
	es := int64(w.Precision.ElemSize()) // gradients travel at training precision

	// Backward compute per group, in backprop order: output heads, then
	// transformer layers from last to first, then the embedding.
	classBwd := func(c opgraph.LayerClass) time.Duration {
		var t time.Duration
		for _, ot := range r.Ops {
			if ot.Op.Class == c && ot.Op.Phase == profile.Backward {
				t += ot.Total
			}
		}
		return t
	}
	groups := []gradGroup{}
	pgs := opgraph.ParamGroups(w.Cfg)
	// pgs order: embedding, layers 0..N-1, heads. Backprop order is the
	// reverse.
	layerBwd := classBwd(opgraph.ClassTransformer) / time.Duration(w.Cfg.NumLayers)
	groups = append(groups, gradGroup{
		bwd:  classBwd(opgraph.ClassOutput),
		comm: RingAllReduce(int64(pgs[len(pgs)-1].Size)*es, devices, dev),
	})
	for i := w.Cfg.NumLayers; i >= 1; i-- {
		groups = append(groups, gradGroup{
			bwd:  layerBwd,
			comm: RingAllReduce(int64(pgs[i].Size)*es, devices, dev),
		})
	}
	groups = append(groups, gradGroup{
		bwd:  classBwd(opgraph.ClassEmbedding),
		comm: RingAllReduce(int64(pgs[0].Size)*es, devices, dev),
	})

	exposed, hidden, _ := scheduleComm(groups, overlap)

	p := Profile{
		Name:       name,
		Devices:    devices,
		Compute:    r.ByClass(),
		Comm:       exposed,
		HiddenComm: hidden,
	}
	p.Total = r.Total + exposed
	return p
}

// TensorSlicing models m-way Megatron-style tensor slicing at per-group
// mini-batch b. The per-device compute graph comes from
// opgraph.Build with SliceWays=m; the four per-layer activation
// AllReduces (two forward, two backward) serialize with computation due
// to data dependencies (Section 5.1).
func TensorSlicing(name string, w opgraph.Workload, m int, dev device.Device) Profile {
	w.SliceWays = m
	r := perfmodel.Run(opgraph.Build(w), dev)

	actBytes := int64(w.Tokens()) * int64(w.Cfg.DModel) * int64(w.Precision.ElemSize())
	perLayer := 4 * RingAllReduce(actBytes, m, dev)
	comm := time.Duration(w.Cfg.NumLayers) * perLayer
	if w.CheckpointEvery > 0 {
		// Recomputed forward segments repeat their two forward AllReduces.
		comm += time.Duration(w.Cfg.NumLayers) * 2 * RingAllReduce(actBytes, m, dev)
	}

	return Profile{
		Name:    name,
		Devices: m,
		Compute: r.ByClass(),
		Comm:    comm,
		Total:   r.Total + comm,
	}
}

// Fig11 builds the paper's five Fig. 11 bars for BERT-Large on the given
// device: S1 (single GPU, B=16), D1 (128-way DP without overlap), D2
// (128-way DP with overlap), T1 (2-way TS, B=16), and T2 (8-way TS, B=64).
func Fig11(cfg opgraph.Workload, dev device.Device) []Profile {
	mk := func(b int) opgraph.Workload {
		w := cfg
		w.B = b
		w.Name = fmt.Sprintf("%s-B%d", w.Name, b)
		return w
	}
	s1 := perfmodel.Run(opgraph.Build(mk(16)), dev)
	return []Profile{
		SingleGPU("S1 (1 GPU, B=16)", s1),
		DataParallel("D1 (DP-128, B=16, no overlap)", s1, 128, false),
		DataParallel("D2 (DP-128, B=16, overlap)", s1, 128, true),
		TensorSlicing("T1 (TS 2-way, B=16)", mk(16), 2, dev),
		TensorSlicing("T2 (TS 8-way, B=64)", mk(64), 8, dev),
	}
}
