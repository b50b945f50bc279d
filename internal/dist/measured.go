package dist

import "time"

// This file cross-validates the analytical data-parallel model against
// real multi-process training (internal/distnet): instead of a modeled
// device, predictions are built from measured quantities — per-bucket
// backward segments and bytes from an instrumented run, plus the link
// bandwidth/latency distnet's ProbeLink observes on the actual sockets.
// The comm schedule (ring cost, overlap timeline) is shared verbatim
// with the Fig. 11 profiles, so measured-vs-modeled divergence isolates
// input error from scheduling error.

// Link is a measured point-to-point interconnect: what distnet.ProbeLink
// reports for a loopback TCP ring, or a device table entry for a modeled
// one.
type Link struct {
	Bandwidth float64       // bytes/s per direction
	Latency   time.Duration // per ring-step software+wire latency
}

// MeasuredBucket is one gradient bucket as observed in a real run: the
// backward compute segment that produces its gradients and the payload
// it all-reduces.
type MeasuredBucket struct {
	Bwd   time.Duration // backward time from the previous bucket's readiness to this one's
	Bytes int64         // gradient payload (4 bytes per float32 element)
}

// Prediction is the modeled per-step outcome for one (world, overlap)
// configuration.
type Prediction struct {
	Step    time.Duration // full iteration wall time
	Comm    time.Duration // total AllReduce time across buckets
	Exposed time.Duration // communication not hidden behind backward
	Hidden  time.Duration // communication overlapped with backward
}

// PredictDP predicts one data-parallel training step from measured
// single-process compute and a measured link, using the same ring cost
// and overlap schedule as the analytical Fig. 11 model.
//
// fwd and upd are the per-step forward and optimizer/zero-grad times;
// buckets carry the backward decomposition in launch order.
// computeDilation scales every compute segment — 1.0 models dedicated
// devices (the paper's setting); world/cores models ranks time-slicing a
// shared host, where the "accelerators" themselves contend (the regime a
// loopback benchmark on one machine actually runs in).
func PredictDP(fwd, upd time.Duration, buckets []MeasuredBucket, world int, link Link, overlap bool, computeDilation float64) Prediction {
	if computeDilation < 1 {
		computeDilation = 1
	}
	dilate := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * computeDilation)
	}
	groups := make([]gradGroup, len(buckets))
	for i, b := range buckets {
		groups[i] = gradGroup{
			bwd:  dilate(b.Bwd),
			comm: ringTime(b.Bytes, world, link.Bandwidth, link.Latency),
		}
	}
	exposed, hidden, commTotal := scheduleComm(groups, overlap && world > 1)
	var bwd time.Duration
	for _, g := range groups {
		bwd += g.bwd
	}
	return Prediction{
		Step:    dilate(fwd) + bwd + exposed + dilate(upd),
		Comm:    commTotal,
		Exposed: exposed,
		Hidden:  hidden,
	}
}
