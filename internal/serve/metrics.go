package serve

import "demystbert/internal/obs"

// Serving metrics, registered in the process-wide obs registry so the
// debug endpoints of a serving binary expose the scheduler the same way
// they expose the kernel layer: queue depth and wait, coalesced batch
// geometry (requests and tokens per batch), end-to-end latency, and
// goodput in tokens. All hot-path updates are single atomics per the obs
// contract.
var (
	reqsTotal = obs.NewCounter("serve_requests_total",
		"inference requests accepted into the scheduler queue")
	reqsRejected = obs.NewCounter("serve_rejected_total",
		"inference requests rejected at admission (queue full or draining)")
	reqsServed = obs.NewCounter("serve_served_total",
		"inference requests completed with predictions")
	predsTotal = obs.NewCounter("serve_predictions_total",
		"masked-position predictions returned")
	batchesTotal = obs.NewCounter("serve_batches_total",
		"dynamic batches dispatched to the model")
	goodputTokens = obs.NewCounter("serve_goodput_tokens_total",
		"tokens in dispatched batches (all real: batches are ragged)")

	queueDepth = obs.NewGauge("serve_queue_depth",
		"requests waiting in the scheduler (queued or coalescing)")
	queueCap = obs.NewGauge("serve_queue_cap",
		"admission queue capacity (queue depth saturates here)")
	runnersLive = obs.NewGauge("serve_runners",
		"batch runners of the engine built last, one per core (GOMAXPROCS)")
	workspaceBytes = obs.NewGauge("serve_workspace_bytes",
		"activation workspace the live runners hold, all of them together")

	batchSizeHist = obs.NewHistogram("serve_batch_size",
		"requests per dispatched batch",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	batchTokensHist = obs.NewHistogram("serve_batch_tokens",
		"tokens per dispatched batch (what the forward pass's cost follows)",
		obs.ExpBuckets(4, 2, 12))
	queueWaitMS = obs.NewHistogram("serve_queue_wait_ms",
		"time from admission to batch dispatch, milliseconds",
		obs.ExpBuckets(0.05, 2, 18))
	// Latency buckets are tuned to the measured operating band: the
	// one-core serve sweeps landed p50 between 3.9 and 9.2 ms across batch
	// configurations, so that range gets 0.5 ms resolution (the old
	// power-of-two ladder jumped 3.2→6.4→12.8 and blurred every
	// configuration into two buckets). Sub-ms and tail ranges keep
	// coarser coverage for loadgen sweeps and overload states.
	latencyMS = obs.NewHistogram("serve_latency_ms",
		"time from admission to completed predictions, milliseconds",
		[]float64{0.25, 0.5, 1, 2, 3, 3.5, 4, 4.5, 5, 5.5, 6, 6.5, 7,
			7.5, 8, 8.5, 9, 9.5, 10, 12, 16, 24, 48, 96, 200, 500})
	modelMS = obs.NewHistogram("serve_model_ms",
		"forward-pass wall time per dispatched batch, milliseconds",
		obs.ExpBuckets(0.05, 2, 18))

	// latencyWindow backs the rolling p50/p99 gauges: what the latency
	// distribution looks like *now*, not since boot.
	latencyWindow = obs.NewWindow(obs.DefaultWindowCap)
)

func init() {
	obs.NewQuantileGauge("serve_latency_p50_ms",
		"rolling-window median request latency, milliseconds", latencyWindow, 0.50)
	obs.NewQuantileGauge("serve_latency_p99_ms",
		"rolling-window p99 request latency, milliseconds", latencyWindow, 0.99)
}
