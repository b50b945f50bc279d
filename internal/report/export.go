package report

import (
	"demystbert/internal/obs"
	"demystbert/internal/perfmodel"
	"demystbert/internal/profile"
)

// StepRecordFromResult converts a modeled characterization into the
// per-step record bertprof writes for measured steps: wall time is the
// modeled iteration time, the category rows are the modeled per-category
// kernels, time, FLOPs and bytes (sorted like a measured step's, by
// descending time), rates are taken against the modeled device's peaks,
// and loss is zero (an analytical model has none).
func StepRecordFromResult(step int, r *perfmodel.Result) obs.StepRecord {
	sum := profile.Summary{ByCategory: map[profile.Category]profile.Stat{}}
	for _, ot := range r.Ops {
		st := sum.ByCategory[ot.Op.Category]
		st.Kernels += ot.Op.Repeat
		st.Duration += ot.Total
		st.FLOPs += ot.Op.TotalFLOPs()
		st.Bytes += ot.Op.TotalBytes()
		sum.ByCategory[ot.Op.Category] = st
	}
	return obs.NewStepRecord(step, 0, r.Graph.Workload.Tokens(), r.Total, sum, r.Device.Peaks())
}
