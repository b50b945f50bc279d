#!/bin/sh
# check.sh — tier-1 gate for the repo: vet, build, race-test the hot
# packages, full test sweep, and the benchmark's own smoke (every workload
# plus its correctness checks) so kernel regressions fail loudly before
# merge. Run from the repo root or via `make check`.
#
# Every test leg runs whole packages and differs from `go test ./...` by a
# flag or the environment (-race, -race -short, GOMAXPROCS=1,
# DEMYSTBERT_NOSIMD=1, -count=2, -count=1, -gelu-full -exp-full); no leg pins tests by name, so
# a renamed test cannot leave the gate. The alloc guards,
# serving/tracing/shutdown smokes and bitwise-parity tests are ordinary
# tests of their packages and run in the sweep.
set -eu
cd "$(dirname "$0")/.."

# vet and build cover ./bench, which may not change in a PR that claims a
# gain: they are the proof that no name it reads from internal/ has moved.
echo "== gofmt -l . (every Go file is gofmt-formatted)"
test -z "$(gofmt -l .)" || { gofmt -l . >&2; exit 1; }

echo "== go vet ./..."
go vet ./...

echo "== GOARCH=s390x go vet ./internal/distnet/ (the big-endian wire encode/decode in wire_be.go keeps compiling)"
GOARCH=s390x go vet ./internal/distnet/

echo "== GOARCH=arm64 go vet ./... (the non-amd64 kernel table, gemm_kernel_noasm.go, keeps compiling when table fields go)"
GOARCH=arm64 go vet ./...

echo "== GOARCH=arm64 LayerNorm and element-wise listing (no fused multiply-add in layernorm.go or elementwise.go: every product is rounded before it is added, so arm64 computes amd64's LayerNorm and fused-softmax bits)"
GOARCH=arm64 go build -gcflags=-S ./internal/kernels/ >/tmp/kernels_arm64.txt 2>&1 || { tail -20 /tmp/kernels_arm64.txt; exit 1; }
if grep -E '(layernorm|elementwise)\.go:' /tmp/kernels_arm64.txt | grep -E 'FN?M(ADD|SUB)S'; then
	echo "check: fused multiply-add in the arm64 LayerNorm or element-wise bodies" >&2
	exit 1
fi
rm -f /tmp/kernels_arm64.txt

echo "== go build ./..."
go build ./...

echo "== go test -race (kernels, tensor, obs, profile, trace)"
go test -race ./internal/kernels/ ./internal/tensor/ ./internal/obs/ ./internal/profile/ ./internal/trace/

echo "== go test -race -short (nn, model, optim, distnet, memscale, audit, serve, runutil, cmd/bertdist's forked-worker launcher — reduced scale)"
go test -race -short ./internal/nn/ ./internal/model/ ./internal/optim/ ./internal/distnet/ ./internal/memscale/ ./internal/audit/ ./internal/serve/ ./internal/runutil/ ./cmd/bertdist/

echo "== GOMAXPROCS=1 leg (kernels, optim, distnet, serve, model, nn: nothing may depend on the core count; a polling worker, a join or a FIFO runner that forgot to yield hangs here)"
GOMAXPROCS=1 go test -count=1 -timeout 5m ./internal/kernels/ ./internal/optim/ ./internal/distnet/ ./internal/serve/ ./internal/model/ ./internal/nn/

echo "== DEMYSTBERT_NOSIMD=1 leg (kernels, optim, model, serve: the portable Go body behind every kernel-table entry — micro-kernels, packs, LAMB sweeps, GeLU/exp spans — end to end, ragged batch == alone and batched == serial included, which an AVX host otherwise never runs)"
DEMYSTBERT_NOSIMD=1 go test -count=1 ./internal/kernels/ ./internal/optim/ ./internal/model/ ./internal/serve/

echo "== re-run leg (kernels, nn, model, optim, serve, distnet twice in one process: a test that leans on process-global state — pool heat, obs counters, SetMaxWorkers, a group's sender goroutine outliving its Close — cannot pass by running first)"
go test -count=2 -short ./internal/kernels/ ./internal/nn/ ./internal/model/ ./internal/optim/ ./internal/serve/ ./internal/distnet/

echo "== go test ./..."
go test ./...

echo "== GeLU and exp exactness, all 2^32 float32 inputs (kernels with -gelu-full -exp-full: GELU, GELU' and softmax's exp equal the float64 reference bit for bit on every body the host runs; ~4 min on 2 cores)"
go test -count=1 -timeout 30m ./internal/kernels/ -gelu-full -exp-full

echo "== numerics audit, full mode matrix uncached (cross-path differential + gradcheck + determinism; ~1 s)"
go test -count=1 ./internal/audit/

echo "== distributed training smoke (2 real processes over loopback TCP, loss falls)"
go run ./cmd/bertdist -launch 2 -steps 6 -train-b 2 -seq 16 -fixed-data -drop 0 | grep "loss fell"

echo "== distributed trace smoke (2 ranks, merged timeline + straggler table)"
go run ./cmd/bertdist -launch 2 -steps 3 -train-b 2 -seq 16 -drop 0 -trace -trace-out /tmp/bertdist_trace.json | grep "gating-rank" >/dev/null
test -s /tmp/bertdist_trace.json && rm -f /tmp/bertdist_trace.json

echo "== memory-scaled BERT-Large smoke (reduced layers; accumulation + virtual shards + spill under GOMEMLIMIT)"
go run ./cmd/bertchar -large -large-layers 2 -large-b 2 -accum 2 -large-seq 32 -shards 2 -ckpt-every 1 -memlimit-mb 768 >/dev/null

echo "== benchmark smoke (all six workloads at toy scale + golden losses, cross-rank bitwise, batched == serial; writes bench/out/)"
go run ./bench -all -smoke >/dev/null

echo "== kernel micro-benchmark smoke (pool fork/join + micro-kernels + transposing packs + GeLU + LAMB sweeps + softmax/exp + fused GEMM tails, 1 iteration)"
go test -run 'xxx' -bench 'ForkJoin|MicroKernel|PackPanels|GeLU|LAMB|SumSquares|SubScaled|Softmax|Exp|Epilogue' -benchtime 1x -benchmem ./internal/kernels/ >/dev/null

echo "check: OK"
