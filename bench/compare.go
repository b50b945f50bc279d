package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict classifies new against old for one workload and metric, by the
// rule of the choosing-metrics guide (§6.5 and §8):
//
//   - a spread (interquartile distance ÷ median) wider than the bound on
//     either side makes the pair unresolved, unless every new run reads
//     better than every old run;
//   - otherwise a median worse by more than the bound is worse;
//   - a gain is claimed only from at least ten index-paired runs, of which
//     new wins nine tenths, with medians that differ by more than old's
//     own interquartile distance;
//   - anything else is the same.
//
// minPairs is how many paired runs a claimed gain needs (§8).
const minPairs = 10

func verdict(d metricDecl, old, new []float64) string {
	mo, mn := median(old), median(new)
	worse := worsening(d, mo, mn)
	spread := func(xs []float64, m float64) float64 {
		if m == 0 {
			return 0
		}
		q1, q3 := quartiles(xs)
		return (q3 - q1) / m
	}
	if spread(old, mo) > d.Bound || spread(new, mn) > d.Bound {
		for _, o := range old {
			for _, n := range new {
				if worsening(d, o, n) >= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	if worse > d.Bound {
		return "worse"
	}
	pairs, wins := min(len(old), len(new)), 0
	for i := 0; i < pairs; i++ {
		if worsening(d, old[i], new[i]) < 0 {
			wins++
		}
	}
	if pairs >= minPairs && -worse > spread(old, mo) && 10*wins >= 9*pairs {
		return "better"
	}
	return "same"
}

func readDoc(path string) (*document, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &d, nil
}

// series collects one metric of one workload across a document's runs,
// and the workload's failed share.
func (d *document) series(workload, metric string) (vals []float64, failShare float64) {
	var failed, attempted int
	for _, run := range d.Runs {
		r, ok := run.Workloads[workload]
		if !ok {
			continue
		}
		if v, ok := r.EndToEnd[metric]; ok {
			vals = append(vals, v.Value)
		}
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	if attempted > 0 {
		failShare = float64(failed) / float64(attempted)
	}
	return vals, failShare
}

// compareDocs prints, per workload and end-to-end metric, both sides'
// medians and quartiles and the verdict. It returns 1 on any "worse" and
// on any rise in a workload's failed share.
func compareDocs(spec *benchSpec, oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readDoc(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	nw, err := readDoc(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compare(spec, old, nw, stdout)
}

func compare(spec *benchSpec, old, nw *document, stdout io.Writer) int {
	status := 0
	fmt.Fprintf(stdout, "%-13s %-13s %30s %30s %8s %6s  %s\n", "workload", "metric",
		"old median [q1, q3] n", "new median [q1, q3] n", "worse by", "bound", "verdict")
	for _, w := range spec.Workloads {
		var fo, fn float64
		for _, d := range spec.EndToEnd {
			var vo, vn []float64
			vo, fo = old.series(w.Name, d.Name)
			vn, fn = nw.series(w.Name, d.Name)
			if len(vo) == 0 || len(vn) == 0 {
				continue
			}
			side := func(xs []float64) string {
				q1, q3 := quartiles(xs)
				return fmt.Sprintf("%.5g [%.5g, %.5g] %d", median(xs), q1, q3, len(xs))
			}
			v := verdict(d, vo, vn)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-13s %-13s %30s %30s %+7.1f%% %5.0f%%  %s\n", w.Name, d.Name, side(vo), side(vn),
				100*worsening(d, median(vo), median(vn)), 100*d.Bound, v)
		}
		if fn > fo {
			status = 1
			fmt.Fprintf(stdout, "%-13s %-13s failed share rose from %.4g to %.4g: worse\n", w.Name, "fail_share", fo, fn)
		}
	}
	return status
}
