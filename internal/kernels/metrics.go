package kernels

import "demystbert/internal/obs"

// Runtime counters for the kernel layer's three hot subsystems — the
// worker pool, the pre-packed-weight cache, and the GEMM entry points.
// All are plain atomic adds (obs hot-path contract), so the zero-alloc
// guarantees of the dispatch paths hold with instrumentation on; served
// live at /metrics by the obs debug server.
var (
	poolDispatches = obs.NewCounter("kernels_pool_dispatches_total",
		"parallel regions dispatched to the worker pool")
	poolInline = obs.NewCounter("kernels_pool_inline_total",
		"parallel regions run inline (serial pool, tiny n, or single chunk)")
	poolGrains = obs.NewCounter("kernels_pool_grains_total",
		"grain-sized work chunks handed out by region drains")
	poolSteals = obs.NewCounter("kernels_pool_steals_total",
		"regions stolen from the queue by a joining caller while it waited")
	poolHotPickups = obs.NewCounter("kernels_pool_hot_pickups_total",
		"regions a pool worker took while still polling inside its hot window")
	poolParks = obs.NewCounter("kernels_pool_parks_total",
		"times a pool worker fell back to the blocking receive: its hot window ran out, or the pool was not saturated and it did not poll")

	packCacheHits = obs.NewCounter("kernels_pack_cache_hits_total",
		"weight-pack cache lookups served from the cached panels")
	packCacheMisses = obs.NewCounter("kernels_pack_cache_misses_total",
		"weight packs built with no earlier pack of that shape in the cache (cold or wrong shape/backend)")
	packCacheRebuilds = obs.NewCounter("kernels_pack_cache_rebuilds_total",
		"weight packs rebuilt because the parameter generation moved")
	packCacheDeferred = obs.NewCounter("kernels_pack_cache_deferred_total",
		"weight-pack cache lookups that built nothing: a generation's first use packs per call, its second builds the pack")

	gemmShortStripes = obs.NewCounter("kernels_gemm_short_stripe_total",
		"GEMMs run on auto's short-stripe route: m within two row blocks, no pre-built panels, B read in place or packed by the segment that uses it")

	batchedGEMMRuns = obs.NewCounter("kernels_batched_gemm_per_matrix_total",
		"batched GEMMs (batch ≥ 2) run one matrix per pool work item")

	epilogueFusedBias = obs.NewCounter("kernels_gemm_epilogue_fused_bias_total",
		"GEMMs with a bias epilogue fused into the tile write-back")
	epilogueFusedBiasGeLU = obs.NewCounter("kernels_gemm_epilogue_fused_bias_gelu_total",
		"GEMMs with a bias+GeLU epilogue fused into the tile write-back")
	epilogueFusedBiasResLN = obs.NewCounter("kernels_gemm_epilogue_fused_bias_res_ln_total",
		"GEMMs with a bias+residual+LayerNorm epilogue fused into the write-back")
	epilogueReferenceRuns = obs.NewCounter("kernels_gemm_epilogue_reference_total",
		"GEMM epilogues applied as the unfused reference kernel sequence")
)
