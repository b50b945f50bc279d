package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4) — what `curl /metrics` returns and
// any Prometheus-compatible scraper ingests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, m := range r.Snapshot() {
		// A name may carry a constant label set (an info metric such as
		// kernels_gemm_kernel_info{isa="avx2"}); HELP and TYPE take the
		// bare family name.
		family, _, _ := strings.Cut(m.Name, "{")
		if m.Desc != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(family)
			bw.WriteByte(' ')
			bw.WriteString(m.Desc)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(family)
		bw.WriteByte(' ')
		bw.WriteString(m.Kind)
		bw.WriteByte('\n')
		switch m.Kind {
		case "histogram":
			for _, b := range m.Buckets {
				bw.WriteString(m.Name)
				bw.WriteString(`_bucket{le="`)
				bw.WriteString(promFloat(b.UpperBound))
				bw.WriteString(`"} `)
				bw.WriteString(strconv.FormatInt(b.Count, 10))
				// OpenMetrics-style exemplar on the +Inf bucket: links
				// the histogram's worst recent observation to its trace.
				if m.Exemplar != nil && math.IsInf(b.UpperBound, 1) {
					bw.WriteString(` # {trace_id="`)
					bw.WriteString(m.Exemplar.TraceID)
					bw.WriteString(`"} `)
					bw.WriteString(promFloat(m.Exemplar.Value))
					bw.WriteByte(' ')
					bw.WriteString(promFloat(float64(m.Exemplar.UnixNano) / 1e9))
				}
				bw.WriteByte('\n')
			}
			bw.WriteString(m.Name)
			bw.WriteString("_sum ")
			bw.WriteString(promFloat(m.Sum))
			bw.WriteByte('\n')
			bw.WriteString(m.Name)
			bw.WriteString("_count ")
			bw.WriteString(strconv.FormatInt(int64(m.Value), 10))
			bw.WriteByte('\n')
		default:
			bw.WriteString(m.Name)
			bw.WriteByte(' ')
			bw.WriteString(promFloat(m.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// promFloat formats a float the way Prometheus text format expects
// (+Inf spelled out, integers without exponent noise).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}
