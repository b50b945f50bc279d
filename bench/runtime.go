package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"

	"demystbert/internal/obs"
)

// peakRSSMB is the process's resident-set high-water mark (what
// /proc/self/status calls VmHWM), read through getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeSnap is the Go runtime's own accounting at one instant.
type runtimeSnap struct {
	allocBytes, mallocs, gcCycles uint64
	pauseNS                       uint64
	gcCPU, totalCPU               float64 // seconds
}

func readRuntime() runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := runtimeSnap{allocBytes: m.TotalAlloc, mallocs: m.Mallocs, gcCycles: uint64(m.NumGC), pauseNS: m.PauseTotalNs}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// emitRuntime reports allocation and collector activity over a window of
// ops operations (steps or requests).
func emitRuntime(res *result, a, b runtimeSnap, ops int) {
	n := float64(max(ops, 1))
	res.layer("runtime.alloc_mb_per_op", float64(b.allocBytes-a.allocBytes)/n/(1<<20), ops)
	res.layer("runtime.mallocs_per_op", float64(b.mallocs-a.mallocs)/n, ops)
	res.layer("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles), ops)
	res.layer("runtime.gc_pause_ms", float64(b.pauseNS-a.pauseNS)/1e6, ops)
	share := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		share = (b.gcCPU - a.gcCPU) / d
	}
	res.layer("runtime.gc_cpu_share", share, ops)
}

// obsSnap is every metric of the process-wide registry at one instant:
// counter and gauge values, histogram counts and sums.
type obsSnap struct {
	value, sum map[string]float64
}

func snapObs() obsSnap {
	s := obsSnap{value: map[string]float64{}, sum: map[string]float64{}}
	for _, m := range obs.Default.Snapshot() {
		s.value[m.Name] = m.Value
		s.sum[m.Name] = m.Sum
	}
	return s
}

// delta is how far the named counters moved between two snapshots, summed.
func (a obsSnap) delta(b obsSnap, names ...string) float64 {
	d := 0.0
	for _, n := range names {
		d += b.value[n] - a.value[n]
	}
	return d
}

func (a obsSnap) sumDelta(b obsSnap, name string) float64 { return b.sum[name] - a.sum[name] }

func obsGauge(name string) float64 {
	m, _ := obs.Default.Find(name)
	return m.Value
}

// emitKernelCounters reports the kernel layer's own counters per operation.
func emitKernelCounters(res *result, a, b obsSnap, ops int) {
	n := float64(max(ops, 1))
	per := func(metric string, names ...string) float64 {
		v := a.delta(b, names...) / n
		res.layer(metric, v, ops)
		return v
	}
	hits := per("kernels.pack_hits", "kernels_pack_cache_hits_total")
	misses := per("kernels.pack_misses", "kernels_pack_cache_misses_total")
	rebuilds := per("kernels.pack_rebuilds", "kernels_pack_cache_rebuilds_total")
	ratio := 0.0
	if all := hits + misses + rebuilds; all > 0 {
		ratio = hits / all
	}
	res.layer("kernels.pack_hit_ratio", ratio, ops)
	per("kernels.pool_dispatches", "kernels_pool_dispatches_total")
	per("kernels.pool_inline", "kernels_pool_inline_total")
	per("kernels.pool_steals", "kernels_pool_steals_total")
	per("kernels.batched_blocked", "kernels_batched_gemm_blocked_total")
	per("kernels.batched_per_matrix", "kernels_batched_gemm_per_matrix_total")
	per("kernels.epilogue_fused", "kernels_gemm_epilogue_fused_bias_total",
		"kernels_gemm_epilogue_fused_bias_gelu_total", "kernels_gemm_epilogue_fused_bias_res_ln_total")
	per("kernels.epilogue_reference", "kernels_gemm_epilogue_reference_total")
}
