package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteReport renders a rocProf-style text report of the summary to w:
// one row per category sorted by runtime share, with kernel counts, total
// duration, FLOPs, bytes, achieved arithmetic intensity, and share of the
// iteration. A non-nil modeled adds a column of modeled shares by
// category, and a row for each modeled category the summary lacks.
func (s Summary) WriteReport(w io.Writer, title string, modeled map[Category]float64) {
	col := func(c Category) string { return "" }
	cats := s.Categories()
	if modeled != nil {
		col = func(c Category) string { return fmt.Sprintf(" %7.1f%%", 100*modeled[c]) }
		var extra []Category
		for c := range modeled {
			if _, ok := s.ByCategory[c]; !ok {
				extra = append(extra, c)
			}
		}
		sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
		cats = append(cats, extra...)
	}
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(w, "%-15s %8s %12s %14s %14s %9s %7s", "category", "kernels", "time", "flops", "bytes", "ops/byte", "share")
	if modeled != nil {
		fmt.Fprintf(w, " %8s", "modeled")
	}
	fmt.Fprintln(w)
	for _, c := range cats {
		st := s.ByCategory[c]
		fmt.Fprintf(w, "%-15s %8d %12v %14d %14d %9.2f %6.1f%%%s\n",
			c, st.Kernels, st.Duration.Round(1000), st.FLOPs, st.Bytes,
			st.Intensity(), 100*s.Share(c), col(c))
	}
	total := ""
	if modeled != nil {
		total = fmt.Sprintf(" %7.1f%%", 100.0)
	}
	fmt.Fprintf(w, "%-15s %8d %12v %14d %14d %9.2f %6.1f%%%s\n",
		"TOTAL", s.Total.Kernels, s.Total.Duration.Round(1000),
		s.Total.FLOPs, s.Total.Bytes, s.Total.Intensity(), 100.0, total)
	fmt.Fprintf(w, "phases: ")
	for _, ph := range []Phase{Forward, Backward, Update} {
		st := s.ByPhase[ph]
		share := 0.0
		if s.Total.Duration > 0 {
			share = float64(st.Duration) / float64(s.Total.Duration)
		}
		fmt.Fprintf(w, "%s=%.1f%% ", ph, 100*share)
	}
	fmt.Fprintln(w)
}
