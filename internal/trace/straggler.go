package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Per-step straggler attribution over a merged, clock-aligned span set.
// The trainer records, per rank per step: a "bwd" span, one
// "allreduce.b<k>" span per gradient bucket, and a "step" root. On a
// shared barrier, the step cannot advance until the slowest rank's
// backward + residual communication finishes — this report names that
// rank per step and attributes each rank's exposed communication to the
// buckets that caused it, instead of the run-averaged comm/exposed
// aggregate in distnet.Result.

// BucketComm is one bucket's communication on one rank for one step.
type BucketComm struct {
	Bucket int `json:"bucket"`
	// CommUS is the bucket's AllReduce wall time; ExposedUS the part of
	// it that ran after backward finished (not hidden behind compute).
	CommUS    float64 `json:"comm_us"`
	ExposedUS float64 `json:"exposed_us"`
}

// RankStep is one rank's decomposition of one step.
type RankStep struct {
	Rank  int     `json:"rank"`
	BwdUS float64 `json:"bwd_us"`
	// ReadyUS is when (relative to the step span's aligned start) the
	// rank finished backward plus all residual communication — the
	// moment it could enter the barrier.
	ReadyUS   float64      `json:"ready_us"`
	ExposedUS float64      `json:"exposed_us"`
	Buckets   []BucketComm `json:"buckets,omitempty"`
}

// StepStraggler is the per-step verdict.
type StepStraggler struct {
	Step       int    `json:"step"`
	GatingRank int    `json:"gating_rank"`
	GatingWhat string `json:"gating_what"` // "bwd" or "allreduce.b<k>"
	// SpreadUS is the gap between the first and last rank's ready time —
	// the wait the barrier imposed on the fastest rank.
	SpreadUS float64    `json:"spread_us"`
	Ranks    []RankStep `json:"ranks"`
}

// bucketIndex parses k from "allreduce.b<k>"; -1 when the name is not a
// bucket comm span.
func bucketIndex(name string) int {
	const pfx = "allreduce.b"
	if !strings.HasPrefix(name, pfx) {
		return -1
	}
	k, err := strconv.Atoi(name[len(pfx):])
	if err != nil {
		return -1
	}
	return k
}

// Stragglers builds the per-step report from merged spans. Steps with
// no "bwd" span on any rank are skipped (warm-up or non-training
// traces).
func Stragglers(spans []Span) []StepStraggler {
	type rankAcc struct {
		stepStart time.Time
		hasStart  bool
		bwdEnd    time.Time
		hasBwd    bool
		buckets   map[int]Span
	}
	// step -> rank -> acc
	acc := map[int]map[int]*rankAcc{}
	get := func(step, rank int) *rankAcc {
		m := acc[step]
		if m == nil {
			m = map[int]*rankAcc{}
			acc[step] = m
		}
		a := m[rank]
		if a == nil {
			a = &rankAcc{buckets: map[int]Span{}}
			m[rank] = a
		}
		return a
	}
	for _, s := range spans {
		if s.Step == 0 {
			continue
		}
		switch {
		case s.Name == "step":
			a := get(s.Step, s.Rank)
			a.stepStart, a.hasStart = s.Start, true
		case s.Name == "bwd":
			a := get(s.Step, s.Rank)
			a.bwdEnd, a.hasBwd = s.End(), true
		case bucketIndex(s.Name) >= 0:
			get(s.Step, s.Rank).buckets[bucketIndex(s.Name)] = s
		}
	}

	steps := make([]int, 0, len(acc))
	for st := range acc {
		steps = append(steps, st)
	}
	sort.Ints(steps)

	var out []StepStraggler
	for _, st := range steps {
		ranks := make([]int, 0, len(acc[st]))
		anyBwd := false
		for r, a := range acc[st] {
			ranks = append(ranks, r)
			anyBwd = anyBwd || a.hasBwd
		}
		if !anyBwd {
			continue
		}
		sort.Ints(ranks)

		rep := StepStraggler{Step: st, GatingRank: -1}
		// Step starts may differ per rank; use the earliest as the common
		// origin so ready times are comparable across ranks.
		var origin time.Time
		for _, r := range ranks {
			a := acc[st][r]
			if a.hasStart && (origin.IsZero() || a.stepStart.Before(origin)) {
				origin = a.stepStart
			}
		}
		var firstReady, lastReady float64
		first := true
		var gatingReady float64
		for _, r := range ranks {
			a := acc[st][r]
			if !a.hasBwd {
				continue
			}
			us := func(t time.Time) float64 { return float64(t.Sub(origin).Nanoseconds()) / 1e3 }
			rs := RankStep{Rank: r, BwdUS: us(a.bwdEnd)}
			ready := a.bwdEnd
			gatingWhat := "bwd"
			bks := make([]int, 0, len(a.buckets))
			for k := range a.buckets {
				bks = append(bks, k)
			}
			sort.Ints(bks)
			for _, k := range bks {
				b := a.buckets[k]
				exposed := b.End().Sub(maxTime(b.Start, a.bwdEnd))
				if exposed < 0 {
					exposed = 0
				}
				rs.Buckets = append(rs.Buckets, BucketComm{
					Bucket:    k,
					CommUS:    float64(b.Dur.Nanoseconds()) / 1e3,
					ExposedUS: float64(exposed.Nanoseconds()) / 1e3,
				})
				rs.ExposedUS += float64(exposed.Nanoseconds()) / 1e3
				if b.End().After(ready) {
					ready = b.End()
					gatingWhat = fmt.Sprintf("allreduce.b%d", k)
				}
			}
			rs.ReadyUS = us(ready)
			rep.Ranks = append(rep.Ranks, rs)
			if first || rs.ReadyUS < firstReady {
				firstReady = rs.ReadyUS
			}
			if first || rs.ReadyUS > lastReady {
				lastReady = rs.ReadyUS
			}
			first = false
			if rep.GatingRank < 0 || rs.ReadyUS > gatingReady {
				rep.GatingRank, gatingReady = r, rs.ReadyUS
				rep.GatingWhat = gatingWhat
			}
		}
		if rep.GatingRank < 0 {
			continue
		}
		rep.SpreadUS = lastReady - firstReady
		out = append(out, rep)
	}
	return out
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// WriteStragglerTable renders the report as the human-readable summary
// the bertdist launcher prints.
func WriteStragglerTable(w io.Writer, reps []StepStraggler) {
	if len(reps) == 0 {
		return
	}
	fmt.Fprintf(w, "step  gating-rank  gated-by         spread(us)  per-rank exposed comm (us)\n")
	for _, r := range reps {
		var exp []string
		for _, rk := range r.Ranks {
			exp = append(exp, fmt.Sprintf("r%d:%.0f", rk.Rank, rk.ExposedUS))
		}
		fmt.Fprintf(w, "%4d  %11d  %-15s %11.0f  %s\n",
			r.Step, r.GatingRank, r.GatingWhat, r.SpreadUS, strings.Join(exp, " "))
	}
}
