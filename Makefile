# Developer entry points for the DTM reproduction. `make bench` writes the
# machine-readable BENCH_dtm.json used to track the perf trajectory PR over PR.

GO ?= go

.PHONY: all build vet test bench bench-gate bench-smoke cover clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Measure the gated experiments (those marked Gated in the
# internal/experiments registry) and write their wall time and allocations
# per run to BENCH_dtm.json, the baseline of the regression gate.
bench:
	$(GO) run ./cmd/dtmbench -benchjson BENCH_dtm.json -quick

# The benchmark-regression gate CI runs: measure into BENCH_current.json and
# diff against the committed BENCH_dtm.json baseline (fails on >25% ns/op or
# >10% allocs/op regressions). Re-baseline intentional changes with `make
# bench` and commit the rewritten BENCH_dtm.json.
bench-gate:
	$(GO) run ./cmd/dtmbench -benchjson BENCH_current.json -quick
	$(GO) run ./cmd/benchdiff -baseline BENCH_dtm.json -current BENCH_current.json

# One-iteration smoke run for CI: every benchmark must at least complete.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Coverage ratchet (same gate CI runs): total statement coverage must stay at
# or above the floor committed in COVERAGE_FLOOR.
cover:
	./scripts/coverage_gate.sh

clean:
	rm -f repro.test *.test *.out *.pprof BENCH_current.json
