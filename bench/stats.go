package main

import (
	"math"
	"sort"
)

// percentile returns the q-th quantile (0 ≤ q ≤ 1) of xs by the
// nearest-rank rule on a sorted copy: the smallest sample with at least
// q·n samples at or below it. Nearest rank never interpolates, so every
// reported latency is one that a real operation had.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// rank is the 0-based index of the q-th nearest-rank quantile among n
// sorted samples.
func rank(n int, q float64) int {
	// q·n is nudged down before rounding up so that 0.99·1000, which
	// floating point puts a hair above 990, still means the 990th sample.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailBeyond is how many samples must lie beyond a percentile before it
// is reported (choosing-metrics §1).
const tailBeyond = 10

// tailQuantile is the highest percentile of an n-sample set that still
// has tailBeyond samples above it, capped at p99 and never below the
// median: 1000 samples support p99, 100 support p90, and fewer than 20
// support nothing beyond the median, which is then what the tail reads.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(tailBeyond)/float64(n)
	// Round down to a whole percent so the label ("p84") is exact.
	q = math.Floor(q*100) / 100
	return math.Min(0.99, math.Max(0.5, q))
}

// tail returns the tail percentile the sample supports and which one it
// was (as a whole percent, e.g. 99).
func tail(xs []float64) (value float64, pct int) {
	q := tailQuantile(len(xs))
	return percentile(xs, q), int(math.Round(q * 100))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method: positions
// (n+1)·k/4 with linear interpolation) — the spread rule the regression
// gate applies, so -compare and the gate agree on what "spread" means.
// It needs at least two samples; with fewer both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(n+1) * float64(k) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
