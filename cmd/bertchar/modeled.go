package main

// The workload modes: -sweep (Section 3.3's one-hyperparameter sweeps),
// -dp/-ts (Section 5's per-device multi-device profiles, Section 6.2.3's
// in-network AllReduce), and -export (the modeled breakdown as records).

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"demystbert"
	"demystbert/internal/dist"
	"demystbert/internal/obs"
	"demystbert/internal/opgraph"
	"demystbert/internal/report"
)

// modeFlags carries the knobs of the modes that act on one workload.
type modeFlags struct {
	export, sweep, values string
	dp, ts                int
	zero, noOverlap       bool
	inNetwork             bool
}

func (mf *modeFlags) active() bool {
	return mf.export != "" || mf.sweep != "" || mf.dp > 0 || mf.ts > 0
}

// run renders the requested mode for workload w on dev: -export first,
// then -sweep, then the -dp and -ts profiles.
func (mf *modeFlags) run(out io.Writer, w demystbert.Workload, dev demystbert.Device) error {
	points := []demystbert.Workload{w}
	var vals []int
	if mf.sweep != "" {
		var err error
		if vals, err = parseValues(mf.values, mf.sweep); err != nil {
			return err
		}
		points = sweepPoints(w, mf.sweep, vals)
	}
	rs := make([]*demystbert.Result, len(points))
	for i, p := range points {
		rs[i] = demystbert.Characterize(p, dev)
	}
	switch {
	case mf.export != "":
		return exportRecords(out, mf.export, rs)
	case mf.sweep != "":
		fmt.Fprintf(out, "%-8s %10s %10s %8s %8s %8s %8s\n",
			mf.sweep, "iteration", "tokens/s", "GEMM%", "LAMB%", "Attn%", "Lin+FC%")
		for i, r := range rs {
			fmt.Fprintf(out, "%-8d %10v %9.0fk %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				vals[i], r.Total.Round(time.Millisecond), r.TokensPerSecond()/1e3,
				100*r.GEMMShare(), 100*r.LAMBShare(),
				100*r.AttentionOpsShare(), 100*r.LinearFCShare())
		}
		return nil
	}
	if mf.dp > 0 {
		if mf.zero {
			printProfile(out, dist.ZeRO(fmt.Sprintf("ZeRO-%d B=%d", mf.dp, w.B), rs[0], mf.dp, dev))
		} else {
			printProfile(out, dist.DataParallel(fmt.Sprintf("DP-%d B=%d", mf.dp, w.B), rs[0], mf.dp, !mf.noOverlap))
		}
	}
	if mf.ts > 0 {
		if mf.inNetwork {
			printProfile(out, dist.TensorSlicingInNetwork(fmt.Sprintf("TS-%d-way B=%d (in-network)", mf.ts, w.B), w, mf.ts, dev))
		} else {
			printProfile(out, dist.TensorSlicing(fmt.Sprintf("TS-%d-way B=%d", mf.ts, w.B), w, mf.ts, dev))
		}
	}
	return nil
}

// sweepPoints returns w with the swept hyperparameter set to each value.
func sweepPoints(w demystbert.Workload, sweep string, vals []int) []demystbert.Workload {
	out := make([]demystbert.Workload, len(vals))
	for i, v := range vals {
		p := w
		switch sweep {
		case "layers":
			p.Cfg.NumLayers = v
		case "batch":
			p.B = v
		case "seqlen":
			p.SeqLen = v
		}
		out[i] = p
	}
	return out
}

// sweepDefaults are each sweep's points when -values is not given.
var sweepDefaults = map[string][]int{
	"layers": {6, 12, 24, 48},
	"batch":  {2, 4, 8, 16, 32, 64},
	"seqlen": {64, 128, 256, 512},
}

// parseValues reads -values, or returns the sweep's default points.
func parseValues(s, sweep string) ([]int, error) {
	def, ok := sweepDefaults[sweep]
	if !ok {
		return nil, fmt.Errorf("unknown sweep %q (layers|batch|seqlen)", sweep)
	}
	if s == "" {
		return def, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -values entry %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// printProfile renders one per-device multi-device iteration breakdown.
func printProfile(out io.Writer, p dist.Profile) {
	fmt.Fprintf(out, "%s (devices=%d): total %v\n", p.Name, p.Devices, p.Total.Round(time.Millisecond))
	for _, c := range []opgraph.LayerClass{
		opgraph.ClassTransformer, opgraph.ClassOutput,
		opgraph.ClassEmbedding, opgraph.ClassLAMB,
	} {
		fmt.Fprintf(out, "  %-14s %6.1f%%\n", c, 100*p.Share(c))
	}
	fmt.Fprintf(out, "  %-14s %6.1f%%", "Comm", 100*p.CommShare())
	if p.HiddenComm > 0 {
		fmt.Fprintf(out, " (+%v overlapped)", p.HiddenComm.Round(time.Millisecond))
	}
	fmt.Fprintln(out)
}

// exportRecords writes one modeled record per result: JSON lines closed
// by the live registry's snapshot, or CSV category rows.
func exportRecords(w io.Writer, format string, rs []*demystbert.Result) error {
	recs := make([]obs.StepRecord, len(rs))
	for i, r := range rs {
		recs[i] = report.StepRecordFromResult(i+1, r)
	}
	switch format {
	case "json":
		return obs.WriteJSONL(w, recs, obs.Default)
	case "csv":
		return obs.WriteCSV(w, recs)
	}
	return fmt.Errorf("unknown export format %q (json|csv)", format)
}
