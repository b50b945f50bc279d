GO ?= go

.PHONY: all build test check fuzz clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: vet + build + race tests on hot packages + full tests +
# benchmark smoke. CI entrypoint.
check:
	sh scripts/check.sh

# Short fuzz pass over the GEMM and softmax kernels.
fuzz:
	$(GO) test -run xxx -fuzz FuzzGEMMBlockedVsNaive -fuzztime 30s ./internal/kernels/

clean:
	$(GO) clean ./...
