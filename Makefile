GO ?= go

.PHONY: all build test race vet fmt check bench bench-warehouse bench-all benchdiff cover

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The full gate CI runs: formatting, static checks, build, race-enabled tests.
check: fmt vet build race

bench:
	$(GO) test -bench=. -benchmem

# Warehouse ingest throughput only; emits BENCH_warehouse.json for CI to
# archive. Fast enough to run on every push. The benchmark writes the JSON
# as a side effect, so assert the file actually appeared — otherwise a
# renamed benchmark makes this target succeed while producing nothing.
bench-warehouse:
	rm -f BENCH_warehouse.json
	$(GO) test -run='^$$' -bench=BenchmarkWarehouseIngest -benchmem .
	test -f BENCH_warehouse.json || { echo "bench-warehouse: BENCH_warehouse.json was not emitted" >&2; exit 1; }

# Hot-path benchmarks across every layer (nn, gp, rl, core suggest with and
# without the flight recorder, service, warehouse ingest), parsed into
# BENCH_all.json for benchdiff. Output goes through a file rather than a
# pipe so a failing `go test` cannot be masked by a succeeding parser
# (POSIX sh has no pipefail).
BENCH_PATTERN = ^(BenchmarkForward|BenchmarkForwardBatch|BenchmarkForwardBackward|BenchmarkAdamStep|BenchmarkSoftUpdate|BenchmarkFit200x32|BenchmarkPredict200x32|BenchmarkRDPERAddSample|BenchmarkTD3TrainStep|BenchmarkDDPGTrainStep|BenchmarkTD3Act|BenchmarkSuggest|BenchmarkSuggestTraced|BenchmarkWarehouseIngest|BenchmarkSessionSuggestObserve|BenchmarkSessionSuggestObserveSpine|BenchmarkFleetRoute|BenchmarkLoadgenSuggest|BenchmarkSpineIngest|BenchmarkSpineIngestBackpressure|BenchmarkSpineSample|BenchmarkAdmission)$$

bench-all:
	rm -f BENCH_all.txt BENCH_all.json
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem \
		./internal/nn ./internal/gp ./internal/rl ./internal/core ./internal/service ./internal/fleet ./internal/spine ./internal/admission . >BENCH_all.txt
	$(GO) run ./cmd/benchdiff -parse BENCH_all.txt -o BENCH_all.json
	@echo "wrote BENCH_all.json"

# Compare a fresh bench-all run against the committed baseline; exits
# non-zero on a >20% ns/op regression in any baseline hot path.
benchdiff: bench-all
	$(GO) run ./cmd/benchdiff -baseline bench_baseline.json -current BENCH_all.json

# Per-package coverage summary; leaves coverage.out for CI to archive.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1
