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

echo "== GOARCH=arm64 listings (no fused multiply-add in kernels' layernorm.go, elementwise.go, softmax.go, attention.go, gemm.go or gemm_epilogue.go, nor anywhere in model, tensor or optim: every product is rounded before it is added, so arm64 computes amd64's LayerNorm, softmax, naive-GEMM, GEMM-tail, pooler and initial-weight bits)"
GOARCH=arm64 go build -gcflags=-S ./internal/kernels/ >/tmp/kernels_arm64.txt 2>&1 || { tail -20 /tmp/kernels_arm64.txt; exit 1; }
GOARCH=arm64 go build -gcflags=-S ./internal/model/ ./internal/tensor/ ./internal/optim/ >/tmp/model_arm64.txt 2>&1 || { tail -20 /tmp/model_arm64.txt; exit 1; }
if { grep -E '(layernorm|elementwise|softmax|attention|gemm|gemm_epilogue)\.go:' /tmp/kernels_arm64.txt; grep -E '/internal/(model|tensor|optim)/[a-z0-9_]+\.go:' /tmp/model_arm64.txt; } | grep -E 'FN?M(ADD|SUB)S'; then
	echo "check: fused multiply-add in an arm64 listing that must round every product" >&2
	exit 1
fi
rm -f /tmp/kernels_arm64.txt /tmp/model_arm64.txt

echo "== one pooling primitive and one reader of the width (no non-test Go file in internal/kernels or internal/memscale mentions sync.Pool, which a collection empties; in internal/kernels only parallel.go reads a pool's width field)"
if grep -n 'sync\.Pool' $(ls internal/kernels/*.go internal/memscale/*.go | grep -v '_test\.go$'); then
	echo "check: sync.Pool in internal/kernels or internal/memscale: use a free list (DESIGN.md §6)" >&2
	exit 1
fi
if grep -nE '\.width\b' $(ls internal/kernels/*.go | grep -v '_test\.go$' | grep -v '/parallel\.go$'); then
	echo "check: the worker width is read outside internal/kernels/parallel.go: take a grain from grainFor or piecesPer" >&2
	exit 1
fi

echo "== one attention implementation (no non-test Go file in internal/nn calls BatchedGEMM: training, evaluation and serving attention all run the one region, kernels.GEMMPath.AttentionForward/AttentionBackward; and the region moves no rows: internal/kernels/attention.go has no copy(, its products read and write each head's columns in place)"
if grep -n 'BatchedGEMM' $(ls internal/nn/*.go | grep -v '_test\.go$'); then
	echo "check: internal/nn calls BatchedGEMM: attention runs the one region (DESIGN.md §8)" >&2
	exit 1
fi
if grep -n 'copy(' internal/kernels/attention.go; then
	echo "check: internal/kernels/attention.go copies rows: the per-head products read Q, K, V and dOut at their leading dimension (DESIGN.md §8)" >&2
	exit 1
fi

echo "== one Add&Norm path (no non-test Go file in internal/nn or internal/model but nn.go and linear.go mentions MixedPrecision: the binary16 store, the block dropout and the Add&Norm tail run in the GEMM write-back, in training and evaluation alike; and internal/nn/encoder.go has no AddSkip)"
if grep -n 'MixedPrecision' $(ls internal/nn/*.go internal/model/*.go | grep -v '_test\.go$' | grep -vE '/nn/(nn|linear)\.go$'); then
	echo "check: a MixedPrecision fork outside nn.go and linear.go: the mixed-precision store belongs to the GEMM write-back (DESIGN.md §11)" >&2
	exit 1
fi
if grep -n 'AddSkip' internal/nn/encoder.go; then
	echo "check: internal/nn/encoder.go calls AddSkip: the encoder's Add&Norm runs in the projections' write-back (DESIGN.md §11)" >&2
	exit 1
fi

echo "== one training-iteration path (internal/model/bert.go mentions neither accum.active nor CrossEntropyForward( nor CrossEntropyBackward(: Step is StepAccum of one micro-batch, and the pre-training heads fold through the Sum/Count cross-entropy kernels)"
if grep -nE 'accum\.active|CrossEntropyForward\(|CrossEntropyBackward\(' internal/model/bert.go; then
	echo "check: a second loss path in internal/model/bert.go: Step and Forward run one micro-batch of StepAccum's fold (DESIGN.md §7a)" >&2
	exit 1
fi

echo "== bertdist trains, bertchar models (no non-test Go file in cmd/bertdist imports the root demystbert package, internal/opgraph, internal/perfmodel, internal/dist or internal/report; none in cmd/bertchar imports internal/memscale, internal/optim, internal/nn or internal/data: real training on one machine is bertprof's)"
if grep -nE '"demystbert(/internal/(opgraph|perfmodel|dist|report))?"' $(ls cmd/bertdist/*.go | grep -v '_test\.go$'); then
	echo "check: cmd/bertdist imports the analytical model: its modeled modes are bertchar's" >&2
	exit 1
fi
if grep -nE '"demystbert/internal/(memscale|optim|nn|data)"' $(ls cmd/bertchar/*.go | grep -v '_test\.go$'); then
	echo "check: cmd/bertchar imports the engine: measured runs are bertprof's" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go test -race (kernels, tensor, obs, profile, trace)"
go test -race ./internal/kernels/ ./internal/tensor/ ./internal/obs/ ./internal/profile/ ./internal/trace/

echo "== go test -race -short (nn, model, optim, distnet, memscale, audit, serve, runutil, cmd/bertdist's forked-worker launcher — reduced scale)"
go test -race -short ./internal/nn/ ./internal/model/ ./internal/optim/ ./internal/distnet/ ./internal/memscale/ ./internal/audit/ ./internal/serve/ ./internal/runutil/ ./cmd/bertdist/

echo "== GOMAXPROCS=1 leg (kernels, optim, distnet, serve, model, nn, memscale: nothing may depend on the core count; a polling worker, a join or a FIFO runner that forgot to yield hangs here, and the spill restore target is a workspace draw like every other activation)"
GOMAXPROCS=1 go test -count=1 -timeout 5m ./internal/kernels/ ./internal/optim/ ./internal/distnet/ ./internal/serve/ ./internal/model/ ./internal/nn/ ./internal/memscale/

echo "== DEMYSTBERT_NOSIMD=1 leg (kernels, optim, model, serve: the portable Go body behind every kernel-table entry — micro-kernels, packs, LAMB sweeps, GeLU/exp spans — end to end, ragged batch == alone and batched == serial included, which an AVX host otherwise never runs)"
DEMYSTBERT_NOSIMD=1 go test -count=1 ./internal/kernels/ ./internal/optim/ ./internal/model/ ./internal/serve/

echo "== re-run leg (kernels, nn, model, optim, serve, distnet twice in one process: a test that leans on process-global state — pool heat, obs counters, the kernels' free lists (every region, argument body and scratch buffer ever in use at once, kept for the life of the process), a group's sender goroutine outliving its Close — cannot pass by running first)"
go test -count=2 -short ./internal/kernels/ ./internal/nn/ ./internal/model/ ./internal/optim/ ./internal/serve/ ./internal/distnet/

echo "== go test ./..."
go test ./...

echo "== GeLU and exp exactness, all 2^32 float32 inputs (kernels with -gelu-full -exp-full: GELU, GELU' and softmax's exp equal the float64 reference bit for bit on every body the host runs; ~4 min on 2 cores)"
go test -count=1 -timeout 30m ./internal/kernels/ -gelu-full -exp-full

echo "== numerics audit, full mode matrix uncached (cross-path differential + gradcheck + determinism; ~1 s)"
go test -count=1 ./internal/audit/

echo "== distributed training smoke (2 real processes over loopback TCP, loss falls, each rank holds about half the optimizer state)"
dist=$(go run ./cmd/bertdist -launch 2 -steps 6 -train-b 2 -seq 16 -fixed-data -drop 0)
echo "$dist" | grep "loss fell"
test "$(echo "$dist" | grep -cE 'opt state [0-9]+B \(0\.[45][0-9] of replicated\)')" -eq 2 || {
	echo "check: a rank's optimizer state is not about half the model's:" >&2
	echo "$dist" >&2
	exit 1
}

echo "== distributed trace smoke (2 ranks, merged timeline + straggler table)"
go run ./cmd/bertdist -launch 2 -steps 3 -train-b 2 -seq 16 -drop 0 -trace -trace-out /tmp/bertdist_trace.json | grep "gating-rank" >/dev/null
test -s /tmp/bertdist_trace.json && rm -f /tmp/bertdist_trace.json

echo "== memory-scaled BERT-Large smoke (bertprof at BERT-Large width, 2 layers: accumulation + virtual shards + checkpoint spill under GOMEMLIMIT; measured and modeled shares, spill traffic, peak RSS beside the modeled resident set)"
tmp=$(mktemp -d)
large=$(GOMEMLIMIT=768MiB go run ./cmd/bertprof -layers 2 -dmodel 1024 -heads 16 -dff 4096 -vocab 30522 -n 32 -b 2 -accum 2 -shards 2 -checkpoint 1 -spill-dir "$tmp" -iters 1)
rm -rf "$tmp"
for want in 'share  modeled' 'spill: wrote [1-9][0-9]* B' 'peak RSS [0-9]+ MiB vs modeled resident'; do
	echo "$large" | grep -qE "$want" || {
		echo "check: the memory-scaled smoke printed no line matching '$want':" >&2
		echo "$large" >&2
		exit 1
	}
done

echo "== benchmark smoke (all six workloads at toy scale + golden losses, cross-rank bitwise, batched == serial; writes bench/out/)"
go run ./bench -all -smoke >/dev/null

echo "== kernel micro-benchmark smoke (pool fork/join + micro-kernels + transposing packs + short-stripe GEMMs + streamed pre-packed weights + short ragged attention + one layer's training attention, the region vs the whole-tensor chain it replaced + GeLU + LAMB sweeps + softmax/exp + fused GEMM tails + dropout fill and column folds, 1 iteration)"
go test -run 'xxx' -bench 'ForkJoin|MicroKernel|PackPanels|ShortStripe|GEMMStreamedWeights|AttentionRaggedShort|AttentionTrain|GeLU|LAMB|SumSquares|SubScaled|Softmax|Exp|Epilogue|DropoutMask|BiasGrad|LayerNormBackward' -benchtime 1x -benchmem ./internal/kernels/ >/dev/null

echo "check: OK"
