package dist

import (
	"time"

	"demystbert/internal/device"
	"demystbert/internal/opgraph"
	"demystbert/internal/perfmodel"
)

// InNetworkAllReduce models a switch with compute capability performing
// the reduction in the network (Section 6.2.3, the paper's [47]): each
// device streams its buffer up while receiving the reduced result down
// the same full-duplex link, so the transfer term is bytes/link
// regardless of device count —
// versus the ring's 2·(D-1)/D·bytes/link plus 2·(D-1) hop latencies —
// and the interference between computation and communication steps
// disappears.
func InNetworkAllReduce(bytes int64, devices int, dev device.Device) time.Duration {
	if devices <= 1 || bytes <= 0 {
		return 0
	}
	transfer := float64(bytes) / dev.Interconnect
	return time.Duration(transfer*1e9)*time.Nanosecond + 2*dev.InterconnectLatency
}

// TensorSlicingInNetwork is TensorSlicing with the per-layer activation
// AllReduces executed by in-network compute instead of a ring.
func TensorSlicingInNetwork(name string, w opgraph.Workload, m int, dev device.Device) Profile {
	p := TensorSlicing(name, w, m, dev)
	actBytes := int64(w.Tokens()) * int64(w.Cfg.DModel) * int64(w.Precision.ElemSize())
	comm := time.Duration(w.Cfg.NumLayers) * 4 * InNetworkAllReduce(actBytes, m, dev)
	p.Total = p.Total - p.Comm + comm
	p.Comm = comm
	return p
}

// ZeRO models the reduced-gradient data parallelism the paper cites
// (Section 5.2, reference [69], ZeRO stage 2): instead of every device
// all-reducing the full gradient and redundantly updating the whole
// model, each device reduce-scatters gradients (owning 1/D of them),
// updates only its 1/D optimizer-state partition, and all-gathers the
// updated parameters. The communication volume matches a ring AllReduce,
// but the optimizer work per device scales down by D.
//
// The paper's caveat is modeled too: LAMB's global gradient norm still
// requires a reduction over all gradients before any update — a small
// extra AllReduce of the per-partition norms plus the serialization it
// implies.
func ZeRO(name string, r *perfmodel.Result, devices int, dev device.Device) Profile {
	w := r.Graph.Workload
	es := int64(w.Precision.ElemSize())
	var paramBytes int64
	for _, g := range opgraph.ParamGroups(w.Cfg) {
		paramBytes += int64(g.Size) * es
	}

	// Reduce-scatter + all-gather each move (D-1)/D of the buffer — the
	// two halves of a ring AllReduce.
	comm := RingAllReduce(paramBytes, devices, dev)
	// Global-norm AllReduce: one scalar per partition — latency-bound.
	comm += time.Duration(2*(devices-1)) * dev.InterconnectLatency

	compute := make(map[opgraph.LayerClass]time.Duration)
	var total time.Duration
	for _, ot := range r.Ops {
		d := ot.Total
		if ot.Op.Class == opgraph.ClassLAMB {
			// Each device updates 1/D of the parameters; per-kernel
			// launch overhead remains.
			per := ot.PerLaunch - dev.Launch
			if per < 0 {
				per = 0
			}
			d = time.Duration(ot.Op.Repeat) * (per/time.Duration(devices) + dev.Launch)
		}
		compute[ot.Op.Class] += d
		total += d
	}

	return Profile{
		Name:    name,
		Devices: devices,
		Compute: compute,
		Comm:    comm,
		Total:   total + comm,
	}
}
