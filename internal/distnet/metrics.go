package distnet

import (
	"errors"
	"net"

	"demystbert/internal/obs"
)

// Transport and trainer telemetry, served at /metrics next to the
// kernel-layer counters. The exposed-vs-overlapped histograms are the
// observable form of the paper's D1-vs-D2 distinction: with overlap on,
// distnet_exposed_comm_seconds should collapse toward the final bucket's
// AllReduce while distnet_hidden_comm_seconds absorbs the rest.
var (
	stepsTotal = obs.NewCounter("distnet_steps_total",
		"multi-process data-parallel training steps completed")
	txBytes = obs.NewCounter("distnet_tx_bytes_total",
		"bytes written to ring and control sockets (incl. frame headers)")
	rxBytes = obs.NewCounter("distnet_rx_bytes_total",
		"bytes read from ring and control sockets (incl. frame headers)")
	bucketsReduced = obs.NewCounter("distnet_buckets_reduced_total",
		"gradient buckets all-reduced")
	allreducesTotal = obs.NewCounter("distnet_allreduces_total",
		"ring AllReduce collectives completed")
	commSeconds = obs.NewHistogram("distnet_comm_seconds",
		"total gradient AllReduce time per step (sum over buckets)",
		obs.ExpBuckets(1e-5, 4, 12)) // 10 µs .. ~40 s
	exposedSeconds = obs.NewHistogram("distnet_exposed_comm_seconds",
		"communication time not hidden behind backward compute, per step",
		obs.ExpBuckets(1e-5, 4, 12))
	hiddenSeconds = obs.NewHistogram("distnet_hidden_comm_seconds",
		"communication time overlapped with backward compute, per step",
		obs.ExpBuckets(1e-5, 4, 12))
	stepSeconds = obs.NewHistogram("distnet_step_wall_seconds",
		"wall-clock time of one multi-process training step",
		obs.ExpBuckets(1e-4, 4, 12))

	// Per-op wire-deadline counters: which phase of the protocol a
	// wedged or dead peer surfaced in. A deadline during handshake means
	// a rank never arrived; during reduce/gather it localizes the hang
	// to a ring half; during barrier it names the straggler path.
	deadlineHandshake = obs.NewCounter("distnet_deadline_handshake_total",
		"I/O deadline expiries during rendezvous, ring setup, or clock sync")
	deadlineReduce = obs.NewCounter("distnet_deadline_reduce_total",
		"I/O deadline expiries during reduce-scatter ring steps")
	deadlineGather = obs.NewCounter("distnet_deadline_gather_total",
		"I/O deadline expiries during all-gather ring steps")
	deadlineBarrier = obs.NewCounter("distnet_deadline_barrier_total",
		"I/O deadline expiries during barrier entry or release")
)

// countTimeout bumps c when err is a network timeout (an expired
// read/write deadline) and passes err through either way — the
// classification hook every protocol phase wraps its I/O errors with.
func countTimeout(c *obs.Counter, err error) error {
	var ne net.Error
	if err != nil && errors.As(err, &ne) && ne.Timeout() {
		c.Inc()
	}
	return err
}
