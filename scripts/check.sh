#!/bin/sh
# check.sh — tier-1 gate for the repo: vet, build, race-test the hot
# packages, full test sweep, and a short benchmark smoke so kernel
# regressions fail loudly before merge. Run from the repo root or via
# `make check`.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race (kernels, tensor, obs, profile, trace)"
go test -race ./internal/kernels/ ./internal/tensor/ ./internal/obs/ ./internal/profile/ ./internal/trace/

echo "== go test -race -short (nn, model, optim, ddp, distnet, memscale, audit, serve, runutil — reduced scale)"
go test -race -short ./internal/nn/ ./internal/model/ ./internal/optim/ ./internal/ddp/ ./internal/distnet/ ./internal/memscale/ ./internal/audit/ ./internal/serve/ ./internal/runutil/

echo "== spill-arena race leg (concurrent regions through the shared scratch pool)"
go test -race -run 'TestArenaConcurrentRegions' -count=1 ./internal/memscale/

echo "== GOMAXPROCS=1 leg (kernels, optim, distnet: nothing may depend on the core count; a polling worker or join that forgot to yield hangs here)"
GOMAXPROCS=1 go test -count=1 -timeout 5m ./internal/kernels/ ./internal/optim/ ./internal/distnet/

echo "== go test ./..."
go test ./...

echo "== numerics audit sweep (cross-path differential + gradcheck + determinism)"
go run ./cmd/bertchar -audit >/dev/null

echo "== loss-scaler cap + FP16 conformance"
go test -run 'TestLossScaler' -count=1 ./internal/optim/
go test -run 'TestF16' -count=1 ./internal/tensor/

echo "== alloc guard (GEMM + fused epilogue + int8 + bias kernels + ring allreduce + metrics + nil profiler, zero allocs)"
go test -run 'TestGEMMZeroAllocSteadyState|TestGEMMPackedEpilogueZeroAlloc|TestGEMMInt8ZeroAlloc|TestAddBiasBiasGradZeroAlloc' -count=1 ./internal/kernels/
go test -run 'TestRingAllReduceZeroAllocSteadyState' -count=1 ./internal/ddp/
go test -run 'TestMetricsZeroAlloc|TestWindowObserveZeroAlloc|TestHistogramObserveExemplarNoTraceZeroAlloc' -count=1 ./internal/obs/
go test -run 'TestNilProfilerZeroAlloc' -count=1 ./internal/profile/
go test -run 'TestNilTracerZeroAlloc' -count=1 ./internal/trace/

echo "== alloc guard (accumulation hot loop: zero-copy batch slicing, steady-state spill arena)"
go test -run 'TestAccumHotLoopAllocs' -count=1 ./internal/model/
go test -run 'TestArenaSteadyStateAllocs' -count=1 ./internal/memscale/

echo "== debug server smoke (/metrics, /debug/vars, /debug/pprof/)"
go test -run 'TestDebugServerSmoke' -count=1 ./internal/obs/

echo "== serving smoke (live HTTP server on blocked/fused/int8, 200s + predictions)"
go test -run 'TestServeSmokeAllPaths' -count=1 ./internal/serve/

echo "== serving steady state (zero pack-cache misses after warmup)"
go test -run 'TestSteadyStateZeroPackMisses' -count=1 ./internal/serve/

echo "== request tracing smoke (X-Trace-Id header, /debug/requests breakdown, stage sums)"
go test -run 'TestSubmitTraceStagesSumToTotal|TestHTTPTraceHeaderAndDebugRequests|TestClientSuppliedTraceID' -count=1 ./internal/serve/

echo "== cross-rank trace merge (clock sync, shard exchange, straggler report)"
go test -run 'TestClockSyncWorld2|TestTraceShardExchange|TestMergeAlignsInjectedClockSkew|TestChromeTraceTrackOrdering' -count=1 ./internal/distnet/ ./internal/trace/

echo "== padding-mask audit (fused/unfused parity, exact-zero masked keys, padded vs serial)"
go test -run 'TestFusedUnfusedMaskSoftmaxParity|TestMaskedKeysExactlyZeroWeight|TestPaddedBatchMatchesSerial' -count=1 ./internal/nn/
go test -run 'TestPredictMaskedAtBucketedMatchesSerial' -count=1 ./internal/model/

echo "== graceful shutdown (in-flight drain + signal-driven cleanup)"
go test -run 'TestServerShutdownDrainsInFlight' -count=1 ./internal/obs/
go test -run 'TestSignalDrainsAndExits' -count=1 ./internal/runutil/

echo "== distributed training smoke (2 real processes over loopback TCP, loss falls)"
go run ./cmd/bertdist -launch 2 -steps 6 -train-b 2 -seq 16 -fixed-data -drop 0 | grep "loss fell"

echo "== distributed trace smoke (2 ranks, merged timeline + straggler table)"
go run ./cmd/bertdist -launch 2 -steps 3 -train-b 2 -seq 16 -drop 0 -trace -trace-out /tmp/bertdist_trace.json | grep "gating-rank" >/dev/null
test -s /tmp/bertdist_trace.json && rm -f /tmp/bertdist_trace.json

echo "== distributed shutdown (SIGTERM to launcher drains workers, exit 143)"
go test -run 'TestLaunchSIGTERMDrains' -count=1 ./cmd/bertdist/

echo "== kill-mid-run checkpoint (SIGTERM mid-step leaves a loadable params file, no temp litter)"
go test -run 'TestWorkerSIGTERMCheckpointLoadable' -count=1 ./cmd/bertdist/

echo "== cross-process bitwise parity (world=2 TCP training == in-process ddp; ZeRO-1 == unsharded)"
go test -run 'TestLaunchBitwiseMatchesInProcessDDP' -count=1 ./cmd/bertdist/
go test -run 'TestLaunchZero1BitwiseMatchesUnsharded' -count=1 ./cmd/bertdist/

echo "== memory-scaled BERT-Large smoke (reduced layers; accumulation + virtual shards + spill under GOMEMLIMIT)"
go run ./cmd/bertchar -large -large-layers 2 -large-b 2 -accum 2 -large-seq 32 -shards 2 -ckpt-every 1 -memlimit-mb 768 >/dev/null

echo "== bench smoke (GEMM paper shapes + fused FFN tail + int8 + pool fork/join + micro-kernels + transposing packs, 1 iteration)"
go test -run 'xxx' -bench 'Fig6GEMMIntensity|GEMMPaperSizes|GEMMInt8PaperSizes|RealFFN|ForkJoin|MicroKernel|PackPanels' -benchtime 1x -benchmem . ./internal/kernels/ >/dev/null

echo "check: OK"
