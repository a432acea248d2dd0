# Mirrors .github/workflows/ci.yml exactly: every CI step is one of
# these targets, so `make ci` reproduces the pipeline locally.

GO ?= go

.PHONY: all build lint analyze docs-check test test-full test-fuzz determinism bench bench-json bench-diff ci

all: build

build:
	$(GO) build ./...
	$(GO) build ./examples/...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# The cloudlint analyzer suite (internal/lint): map-iteration-order and
# float-accumulation determinism checks, wall-clock/global-RNG/env bans
# in deterministic packages, the apibound public-API boundary rules on
# the real import graph (cmd/ and examples/ obtain admission only
# through the guarantee package: no internal admitter, cluster or
# placer usage), and the errwrap typed-error taxonomy. The tree must be
# analyzer-clean: every intentional exception carries a justified
# //cloudlint:<name> directive.
analyze: bin/cloudlint
	./bin/cloudlint ./...

bin/cloudlint: $(shell find internal/lint cmd/cloudlint -name '*.go' -not -path '*/testdata/*' 2>/dev/null)
	$(GO) build -o bin/cloudlint ./cmd/cloudlint

# Godoc coverage: every exported identifier (and every package) in
# internal/... and the public guarantee package needs a doc comment.
docs-check:
	$(GO) vet ./internal/... ./guarantee/...
	./scripts/docs-check.sh

# Short suite under the race detector: what CI runs on every push.
# Includes the concurrent-admission stress tests and the quick
# parallel-determinism checks.
test:
	$(GO) test -short -race ./...

# The full suite, including the multi-simulation experiment shape tests
# and the all-figure determinism sweep (minutes, scales with cores).
test-full:
	$(GO) test -race ./...

# Short coverage-guided fuzz smoke over the two parsers that face
# untrusted bytes at recovery time — the grant-event codec (seeded from
# the committed golden wire corpus) and the WAL frame scanner — plus
# the event-driven max-min solver, differentially fuzzed against the
# progressive-filling reference for Float64bits-identical rates. Ten
# seconds each is enough to exercise the mutation engine over every
# seed shape without slowing CI; run longer locally with
# `go test -fuzz ... -fuzztime 5m`.
FUZZTIME ?= 10s
test-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEventCodec -fuzztime $(FUZZTIME) ./internal/place
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzMaxMin -fuzztime $(FUZZTIME) ./internal/netem

# Same seed => bit-identical tables at every worker count, exercised at
# several GOMAXPROCS values. Covers the experiment sweeps (including
# the churn sweep), the sharded churn simulator itself (with and
# without resizes and the enforcement dataplane), the commit-pipeline
# identity checks (the flat-combining Admitter against the test-only
# serial reference admitter, byte for byte, for admissions and for
# resizes) and the mixed-lifecycle stress check, and the crash-recovery
# identity check (kill a durable service mid-churn, recover from WAL +
# snapshot, demand a byte-identical admission trace and final ledger).
determinism:
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run TestParallelDeterminism ./internal/experiments
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestChurnDeterminism|TestChurnResizeDeterminism|TestEnforceChurnDeterminism|TestEnforceChurnIncrementalMatchesFull' ./internal/sim
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestCommitPipelineDeterminism|TestGrantResizeMatchesSerialReference|TestCommitPipelineMixedStress' ./internal/place
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestDifferential' ./internal/dataplane
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestCrashRecoveryDeterminism|TestDurableMatchesInMemory|TestGroupCommit' ./guarantee

# One iteration of every per-artifact benchmark: regenerates the quick
# experiment suite and the admission-throughput numbers.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x .

# Machine-readable admission throughput (in-memory and durable at 1/4/8
# goroutines, 1 and 4 shards) plus enforcement control-loop throughput and convergence
# latency vs tenant count; both JSONs are committed as the baseline so
# the perf trajectory is tracked per commit. 512 servers: the smallest
# spec with room for the full 8/32/128-tenant enforcement sweep.
bench-json:
	$(GO) run ./cmd/admbench -servers 512 -out BENCH_admission.json -enforce-out BENCH_enforce.json

# Regenerate the benchmarks into scratch files and diff them against
# the committed baselines, metric by metric. Required: fails on any
# throughput regression beyond the BENCH_FAIL fraction (default 50%,
# loose enough to absorb CI-runner noise while catching real
# regressions). Pass BENCH_FAIL=0 for a report-only run.
BENCH_FAIL ?= 0.5
bench-diff:
	@status=0; \
	$(GO) run ./cmd/admbench -servers 512 -out BENCH_admission.cand.json -enforce-out BENCH_enforce.cand.json || status=$$?; \
	if [ $$status -eq 0 ]; then \
		$(GO) run ./cmd/benchdiff -old BENCH_admission.json -new BENCH_admission.cand.json -fail $(BENCH_FAIL) || status=$$?; \
		$(GO) run ./cmd/benchdiff -old BENCH_enforce.json -new BENCH_enforce.cand.json -fail $(BENCH_FAIL) || status=$$?; \
	fi; \
	rm -f BENCH_admission.cand.json BENCH_enforce.cand.json; \
	exit $$status

ci: lint analyze docs-check build test test-fuzz determinism bench bench-diff
