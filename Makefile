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

# Short fuzz passes: the GEMM kernels, the /v1/mlm request body — the one
# place external bytes enter the server — checkpoint loading, and distnet
# frames received into gradient memory.
fuzz:
	$(GO) test -run xxx -fuzz FuzzGEMMBlockedVsNaive -fuzztime 30s ./internal/kernels/
	$(GO) test -run xxx -fuzz FuzzMLMHandler -fuzztime 30s ./internal/serve/
	$(GO) test -run xxx -fuzz '^FuzzLoad$$' -fuzztime 30s ./internal/model/
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 30s -parallel 2 ./internal/distnet/

clean:
	$(GO) clean ./...
