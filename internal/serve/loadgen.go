package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/tensor"
)

// Synthetic load generator for the serving engine. It is open-loop: each
// request has a scheduled send time on a fixed-rate clock, latency is
// measured from that scheduled time, and a slow server does NOT slow the
// arrival process down. That makes the measurement immune to coordinated
// omission — a closed-loop client that waits for each response before
// sending the next one under-reports tail latency exactly when the
// server is struggling, which is the regime the latency-vs-throughput
// frontier exists to characterize.

// LoadSpec describes one synthetic workload.
type LoadSpec struct {
	// Rate is the offered load in requests per second; Duration how long
	// to offer it.
	Rate     float64
	Duration time.Duration
	// MinLen/MaxLen bound the (uniform) request lengths; MaskFrac is the
	// fraction of word positions replaced by [MASK] (≥1 per request).
	MinLen, MaxLen int
	MaskFrac       float64
	// Vocab bounds generated word ids; Seed makes the stream
	// reproducible.
	Vocab int
	Seed  uint64
}

func (s *LoadSpec) setDefaults() {
	if s.Rate <= 0 {
		s.Rate = 500
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	if s.MinLen <= 0 {
		s.MinLen = 5
	}
	if s.MaxLen < s.MinLen {
		s.MaxLen = s.MinLen
	}
	if s.MaskFrac <= 0 {
		s.MaskFrac = 0.15
	}
}

// GenRequests deterministically builds the first n requests of the
// spec's stream: [CLS] + words with MaskFrac masked (at least one mask,
// so every request has a prediction to return — except a 1-token request,
// a lone [CLS] with nothing to mask, which the engine answers with zero
// predictions).
func (s *LoadSpec) GenRequests(n int) []*Request {
	rng := tensor.NewRNG(s.Seed)
	reqs := make([]*Request, n)
	for i := range reqs {
		ln := s.MinLen + rng.Intn(s.MaxLen-s.MinLen+1)
		toks := make([]int, ln)
		toks[0] = data.ClsID
		masked := false
		for j := 1; j < ln; j++ {
			if float64(rng.Float32()) < s.MaskFrac {
				toks[j] = data.MaskID
				masked = true
			} else {
				toks[j] = data.FirstWordID + rng.Intn(s.Vocab-data.FirstWordID)
			}
		}
		if !masked && ln > 1 {
			toks[1+rng.Intn(ln-1)] = data.MaskID
		}
		reqs[i] = &Request{Tokens: toks}
	}
	return reqs
}

// LoadResult summarizes one loadgen run. Latencies are milliseconds from
// each request's scheduled send time (open loop).
type LoadResult struct {
	OfferedRPS  float64 `json:"offered_rps"`
	DurationSec float64 `json:"duration_sec"`
	Sent        int     `json:"sent"`
	OK          int     `json:"ok"`
	Rejected    int     `json:"rejected"`
	Failed      int     `json:"failed"`

	AchievedRPS float64 `json:"achieved_rps"`
	// GoodputTPS counts real (non-padding) tokens of successful
	// requests per second.
	GoodputTPS  float64 `json:"goodput_tokens_per_sec"`
	Predictions int     `json:"predictions"`

	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`

	// MeanBatch is the mean dynamic batch size over successful requests
	// (1.0 means batching never coalesced anything).
	MeanBatch float64 `json:"mean_batch"`
}

// Target submits one request — Engine.Submit directly for in-process
// runs, or an HTTP client wrapper for wire-level runs.
type Target func(*Request) (*Response, error)

// RunLoad offers the spec's request stream to target on the open-loop
// clock and returns the measured result.
func RunLoad(spec LoadSpec, target Target) *LoadResult {
	spec.setDefaults()
	n := int(spec.Rate * spec.Duration.Seconds())
	if n < 1 {
		n = 1
	}
	reqs := spec.GenRequests(n)
	interval := time.Duration(float64(time.Second) / spec.Rate)

	latMS := make([]float64, n) // NaN-free: only indices with ok[i] read
	ok := make([]bool, n)
	var rejected, failed atomic.Int64
	var preds, realToks, batchSum atomic.Int64

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			resp, err := target(reqs[i])
			if err != nil {
				if err == ErrOverloaded {
					rejected.Add(1)
				} else {
					failed.Add(1)
				}
				return
			}
			latMS[i] = 1e3 * time.Since(sched).Seconds()
			ok[i] = true
			preds.Add(int64(len(resp.Predictions)))
			realToks.Add(int64(len(reqs[i].Tokens)))
			batchSum.Add(int64(resp.BatchSize))
		}(i, sched)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &LoadResult{
		OfferedRPS:  spec.Rate,
		DurationSec: elapsed.Seconds(),
		Sent:        n,
		Rejected:    int(rejected.Load()),
		Failed:      int(failed.Load()),
		Predictions: int(preds.Load()),
	}
	var lats []float64
	var sum float64
	for i := range latMS {
		if ok[i] {
			res.OK++
			lats = append(lats, latMS[i])
			sum += latMS[i]
		}
	}
	if res.OK > 0 {
		sort.Float64s(lats)
		res.P50MS = pct(lats, 0.50)
		res.P90MS = pct(lats, 0.90)
		res.P99MS = pct(lats, 0.99)
		res.MaxMS = lats[len(lats)-1]
		res.MeanMS = sum / float64(res.OK)
		res.AchievedRPS = float64(res.OK) / elapsed.Seconds()
		res.GoodputTPS = float64(realToks.Load()) / elapsed.Seconds()
		res.MeanBatch = float64(batchSum.Load()) / float64(res.OK)
	}
	return res
}

// pct reads the q-quantile from an ascending slice (nearest-rank).
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// PredictionChecksum submits every request in order and folds (index,
// positions, predicted tokens) into one FNV-1a fingerprint. Run it once
// against a batching engine and once against a serial (MaxBatch=1)
// engine on the same weights: equal checksums mean dynamic batching
// changed no prediction — the "equal accuracy" leg of the goodput
// acceptance criterion.
func PredictionChecksum(reqs []*Request, target Target) (uint64, error) {
	h := fnv.New64a()
	for i, r := range reqs {
		resp, err := target(r)
		if err != nil {
			return 0, fmt.Errorf("request %d: %w", i, err)
		}
		var buf [8]byte
		put := func(v int) {
			for b := 0; b < 8; b++ {
				buf[b] = byte(v >> (8 * b))
			}
			h.Write(buf[:])
		}
		put(i)
		for _, p := range resp.Predictions {
			put(p.Pos)
			put(p.Token)
		}
	}
	return h.Sum64(), nil
}
