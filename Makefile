# relser — Relative Serializability in Go

GO ?= go

# Pinned tool versions, reproducible across CI runs (satellite of the
# rsvet PR: no more @latest drift in required checks).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
BENCHSTAT_VERSION ?= v0.0.0-20240604174448-3b48cf0e4604

.PHONY: all build vet test race cover bench experiments fuzz tools clean ci fmt-check lint staticcheck govulncheck vet-tool rsvet rsvet-spec rsvet-infer test-engine durability-matrix smoke-ops replay-regress bench-module loc

all: build vet test

# Everything CI runs (see .github/workflows/ci.yml).
ci: fmt-check lint build race bench-module loc

# Required lint: go vet, the repo's own rsvet analyzers, staticcheck
# and govulncheck. CI installs the external tools pinned; a local tree
# without them fails here with instructions rather than silently
# passing.
lint: vet rsvet rsvet-spec rsvet-infer staticcheck govulncheck

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found; install with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
		echo "(skipping locally; CI runs it as a required check)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not found; install with:"; \
		echo "  go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)"; \
		echo "(skipping locally; CI runs it as a required check)"; \
	fi

# Build the repository's own static-analysis tool.
vet-tool:
	$(GO) build -o bin/rsvet ./cmd/rsvet

# Run the custom analyzers over the whole tree — internal/, cmd/ and
# examples/ alike (blocking CI gate): ctxflow, detlint, hookshape,
# registrydrift, specbuild and stripelock, the six that survived the
# PR 25 mutation audit (each catches a planted bug tier-1 misses; the
# table is in CHANGES.md).
rsvet:
	$(GO) run ./cmd/rsvet ./...

# Statically triage the example specs: the partitioned spec must
# certify, the degenerate spec must be rejected, fig1 sits in between
# (warnings only). Exit-code smoke mirrors the CI step.
rsvet-spec:
	$(GO) run ./cmd/rsvet -spec -certify examples/specs/partitioned.txt
	@if $(GO) run ./cmd/rsvet -spec examples/specs/degenerate.txt; then \
		echo "rsvet-spec: degenerate.txt unexpectedly passed"; exit 1; \
	else echo "rsvet-spec: degenerate.txt rejected as expected"; fi
	$(GO) run ./cmd/rsvet -spec examples/specs/fig1.txt

# Static spec synthesis smoke: inferring a spec from the partitioned
# example workload's code must produce a certified full chop (the same
# spec examples/specs/partitioned.txt declares by hand).
rsvet-infer:
	$(GO) run ./cmd/rsvet -infer ./examples/partitioned

# Fail if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused engine-pipeline gate (CI: test job): the serial/concurrent
# parity corpus, per-stage cancellation unwind, the split commit
# stage's durability contract (acked => durable, no ack wait under the
# lifecycle lock), the concurrent driver's one admission path (every
# protocol on both drivers, the commit queue, hot-spot blocks on one
# stripe, shard faults once per applied operation, the wedge watchdog)
# and the engine's one step function (each verdict), plus the log's
# counted group commit (one fsync per closed-loop round; every worker
# wait gives its hold on the log up), race-checked and repeated to shake
# out scheduling-dependent flakes. The gate runs in a few seconds; the
# 60 s timeout turns a worker that keeps its hold while it waits, which
# hangs a run, into a failure.
test-engine:
	$(GO) test -race -count=2 -timeout 60s ./internal/engine ./internal/txn \
		-run 'TestSerialConcurrentParity|TestSerialReplayDeterminism|TestCancel|TestRunOptionsTimeout|TestCorePipeline|TestAbortAll|TestStageNames|TestNewCoreValidation|TestAckImpliesDurableConcurrent|TestAckWaitHoldsNoLock|TestConcurrentCommitWaitPath|TestConcurrentWorkloadsAllProtocols|TestShardedWorkloadsAllProtocols|TestShardedHotSpotBlocksOnOneShard|TestLatencyPointsFire|TestWatchdogSurfacesWedge|TestStepVerdicts|TestConcurrentCommitCohort|TestConcurrentCommitJoinsCohort|TestConcurrentCommitLiveness'

# Live ops-endpoint smoke (CI: test job): a run with -ops serving,
# scraped for the canonical /metrics, /healthz and /debug keys while
# the endpoint lingers after the run.
smoke-ops:
	sh scripts/smoke_ops.sh

# Replay-regression gate (CI: test job): every committed .rsrec in
# examples/recordings/ must replay byte-identically, then a fresh
# record/backfill/corrupt cycle certifies rsreplay's exit-code
# contract (0 identical, 3 divergence, 4 unreadable).
replay-regress:
	sh scripts/replay_regress.sh

# The benchmark ladder is its own module (benchmark/go.mod), so
# `go build ./... && go test ./...` from the root never compiles it: a
# refactor of sched.Retirer or graph.Incremental could break its
# decorators unseen. CI: test job.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Non-test Go lines per internal/* package and in total (CI summary;
# put before/after in the PR description).
loc:
	@sh scripts/loc.sh

cover:
	$(GO) test -cover ./...

# One testing.B benchmark per experiment plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# The scheduler/graph/storage/offline-test hot-path benchmarks the CI perf gate
# compares with benchstat (see .github/workflows/ci.yml, job: bench;
# install the pinned tool with
# `go install golang.org/x/perf/cmd/benchstat@$(BENCHSTAT_VERSION)`).
# CI fails a > 15 % regression of sec/op, B/op or allocs/op.
# ./internal/txn includes BenchmarkDeterministicRunnerChain/{2000,32000},
# the chain-soak shape on the tick driver at two run lengths (ns/commit).
# ./internal/sched runs at a fixed 1000 rounds per benchmark, as in CI:
# the protocol benchmarks' per-op cost still grows with b.N.
bench-hot:
	$(GO) test -run 'XXX' -bench . -benchmem -count=5 ./internal/txn ./internal/graph ./internal/storage ./internal/core
	$(GO) test -run 'XXX' -bench . -benchmem -count=5 -benchtime 1000x ./internal/sched

# Durability certification matrix (CI: durability job): the segmented
# group-commit log at shards {1,4,16}, recovery certified with
# rsrecover -strict plus the deterministic first-failing-shard damage
# leg. RACE=1 for the race detector.
durability-matrix:
	sh scripts/durability_matrix.sh

# Regenerate every experiment report of EXPERIMENTS.md (E1-E14, E16,
# E19; performance numbers come from the ladder: bash benchmark/run.sh).
experiments:
	$(GO) run ./cmd/rsbench

# Short fuzzing pass over the parsers, the certification graph, the
# incremental graph's retirement, and the decoders that read files from
# outside the program (WAL segments and records, .rsrec artifacts and
# their snapshot anchor frame). fuzzlist_test.go checks that this list
# names every Fuzz target in the tree.
fuzz:
	$(GO) test -fuzz=FuzzParseOp -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzParseSchedule -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzParseInstance -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzCertGraphMatchesDefinition3 -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzRetireInterleaving -fuzztime=10s ./internal/graph/
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=10s ./internal/fault/
	$(GO) test -fuzz=FuzzSegmentDecode -fuzztime=10s ./internal/storage/
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s ./internal/storage/
	$(GO) test -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/storage/
	$(GO) test -fuzz=FuzzRecordDecode -fuzztime=10s ./internal/record/

tools: vet-tool
	$(GO) build -o bin/rscheck ./cmd/rscheck
	$(GO) build -o bin/rsenum ./cmd/rsenum
	$(GO) build -o bin/rssim ./cmd/rssim
	$(GO) build -o bin/rsbench ./cmd/rsbench
	$(GO) build -o bin/rschop ./cmd/rschop
	$(GO) build -o bin/rsrecover ./cmd/rsrecover
	$(GO) build -o bin/rsreplay ./cmd/rsreplay

clean:
	rm -rf bin
	$(GO) clean -testcache
