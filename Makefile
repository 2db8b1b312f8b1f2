GO ?= go
FUZZTIME ?= 5s

.PHONY: ci lint wilint wilint-ledger lint-selftest vet build test race flake chaos failover corpus corpus-short fuzz-smoke bench bench-smoke bench-check bench-vet bench-all

# ci is the full local gate: static checks (vet + the wilint invariant
# suite and its self-tests), the race-instrumented test suite (including
# the internal/loadtest fleet replay), twenty reruns of the timing-sensitive
# read-path suites (flake), the chaos / crash-recovery harness,
# the cluster failover/partition gauntlet, the core tier of the scenario
# golden corpus, a short fuzz smoke on every fuzz target, a one-iteration
# benchmark smoke (catches benchmarks that stop compiling or crash,
# without timing anything), the SVD-lookup benchmark regression gate, and
# a vet + test pass over the fleet benchmark module.
ci: lint lint-selftest build race flake chaos failover corpus-short fuzz-smoke bench-smoke bench-check bench-vet

# lint runs every static check: go vet, the project's own wilint
# multichecker (exits non-zero on any unsuppressed finding), and
# govulncheck when the tool is installed (the offline build image does not
# ship it; the gate keeps lint green there without hiding vulnerabilities
# on developer machines). All three are cache-friendly: vet and the wilint
# build reuse the go build cache, so a no-change rerun is fast.
lint: vet wilint
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# wilint analyzes the whole module, test files included, with all eleven
# analyzers. CI consumes the machine-readable JSON stream (the shape
# .github/wilint-matcher.json annotates); the exit status is non-zero on
# any unsuppressed finding either way. For human-shaped output run
# `go run ./cmd/wilint ./...` directly.
wilint:
	$(GO) run ./cmd/wilint -format=json ./...

# wilint-ledger enumerates every //wilint:ignore waiver with its
# justification — the suppression budget reviewers audit.
wilint-ledger:
	$(GO) run ./cmd/wilint -ledger ./...

# lint-selftest proves the analyzers themselves still pass their fixture
# suites (each fixture asserts both real findings and directive hygiene).
lint-selftest:
	$(GO) test ./internal/lint/...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# flake reruns, under the race detector, the suites that depend on the read
# path's read-your-writes contract and on the broadcast pump's timing (SSE
# stream, snapshot, mixed read/write fleet replay) twenty times each. They
# were the tier-1 flakes while a reader that lost the publish lock was
# handed the previous epoch; a timing regression there shows up here long
# before it shows up in a single `go test`.
flake:
	$(GO) test -race -count=20 -run 'TestStream|TestSnapshot|TestReadsShare|TestHTTPRead|TestScrape' ./internal/server
	$(GO) test -race -count=20 -run 'TestMixedReadWriteFleetReplay' ./internal/loadtest

# chaos runs the fault-injection harness under the race detector:
# poisoned-report equivalence, AP outages mid-trip, and kill -9
# crash/recovery diffs against uninterrupted runs.
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/loadtest ./internal/scenario

# failover runs the cluster gauntlet under the race detector: WAL-shipping
# frame codec properties, leader kill with standby promotion (promoted-
# replica equivalence, reads and batch-ack durability on the promoted
# node, a standby's refusal before it, a client riding through the kill),
# network partition (lag grows, heals), slow-standby convergence and
# snapshot-rotation resync.
failover:
	$(GO) test -race -v -run 'TestFailover|TestCluster|TestShip|TestParseShipFrame|TestTopology|TestParsePeers|TestPromotedStandbyServesReads|TestPromotedBatchAckIsDurable|TestStandbyRefusesIngestUntilPromoted|TestClientFailsOverToPromotedStandby' ./internal/cluster
	$(GO) test -race -v -run 'TestChaosClusterStandbyPromotion' ./internal/scenario

# corpus replays the FULL scenario golden corpus (all six seeded
# scenarios: three generated city forms, day-scale demand, AP churn and
# the adversarial flood) under the race detector, with per-scenario
# timing in the -v log. Regenerate goldens after an intended pipeline
# change with:
#   $(GO) test ./internal/eval -run TestScenarioCorpusGolden -update
corpus:
	$(GO) test -race -v -run 'TestScenario' ./internal/eval

# corpus-short is the ci tier: the three core scenarios only.
corpus-short:
	$(GO) test -short -v -run 'TestScenarioCorpusGolden' ./internal/eval

# Each -fuzz invocation takes one package and one target.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzHandlerReports -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzHandlerQueries -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzBatchDecode -fuzztime=$(FUZZTIME) ./internal/api
	$(GO) test -run='^$$' -fuzz=FuzzReadNetwork -fuzztime=$(FUZZTIME) ./internal/roadnet
	$(GO) test -run='^$$' -fuzz=FuzzRouteArcQueries -fuzztime=$(FUZZTIME) ./internal/roadnet
	$(GO) test -run='^$$' -fuzz=FuzzReadFrom -fuzztime=$(FUZZTIME) ./internal/traveltime
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/traveltime
	$(GO) test -run='^$$' -fuzz=FuzzWALShip -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzImportTimetable -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzStreamResume -fuzztime=$(FUZZTIME) ./internal/server

# bench times the SVD construction/lookup benchmarks and writes the parsed
# numbers (ns/op, B/op, allocs/op) to BENCH_svd.json via cmd/benchjson,
# then the ingest-throughput benchmarks (single-POST HTTP, NDJSON batch,
# handler-only, decode-only) to BENCH_ingest.json, then the read-path
# benchmarks (snapshot-served GET vs cold recompute for vehicles and
# arrivals, and one whole epoch publish over 10/40/120 live buses with its
# per-publish SegmentTime count under "extra") to BENCH_read.json.
bench:
	$(GO) test -run='^$$' -bench='SVD' -benchmem -count=1 . | $(GO) run ./cmd/benchjson -out BENCH_svd.json
	@cat BENCH_svd.json
	$(GO) test -run='^$$' -bench='BenchmarkIngest|BenchmarkBatch' -benchmem -benchtime=20000x -count=1 ./internal/server \
		| $(GO) run ./cmd/benchjson -out BENCH_ingest.json
	@cat BENCH_ingest.json
	$(GO) test -run='^$$' -bench='BenchmarkVehicles|BenchmarkArrivals|BenchmarkPublish' -benchmem -count=1 ./internal/server \
		| $(GO) run ./cmd/benchjson -out BENCH_read.json
	@cat BENCH_read.json

# bench-smoke runs each SVD build benchmark exactly once — a compile-and-run
# check for ci, not a measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench=SVDBuild -benchtime=1x .

# bench-check gates the hot paths against the committed baselines:
# fresh BenchmarkSVDLookup numbers (min over 3 runs) must stay within 25%
# of BENCH_svd.json's ns/op and must not allocate more per op, and the
# ingest benchmarks must hold both their alloc budgets (handler-only
# allocs/op vs BENCH_ingest.json) and the batch-speedup claim: batched
# NDJSON ingest at least 10x the per-report cost of single-POST HTTP.
# The read benchmarks must hold the snapshot claim: a cached GET at least
# 10x cheaper than the cold recompute of the same response, for both
# vehicles and arrivals (vs BENCH_read.json).
# Refresh a baseline deliberately with `make bench` when a regression is
# intended.
bench-check:
	$(GO) test -run='^$$' -bench='SVDLookup$$' -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson \
		| $(GO) run ./cmd/benchcheck -baseline BENCH_svd.json
	$(GO) test -run='^$$' -bench='BenchmarkIngestHTTP$$|BenchmarkBatchIngest$$|BenchmarkIngestHandler$$|BenchmarkBatchDecode$$' \
		-benchmem -benchtime=20000x -count=3 ./internal/server \
		| $(GO) run ./cmd/benchjson \
		| $(GO) run ./cmd/benchcheck -baseline BENCH_ingest.json \
			-require 'BenchmarkIngestHandler,BenchmarkBatchDecode' \
			-speedup 'BenchmarkBatchIngest:BenchmarkIngestHTTP:10'
	$(GO) test -run='^$$' -bench='BenchmarkVehicles|BenchmarkArrivals' -benchmem -count=3 ./internal/server \
		| $(GO) run ./cmd/benchjson \
		| $(GO) run ./cmd/benchcheck -baseline BENCH_read.json \
			-require 'BenchmarkVehiclesGET,BenchmarkVehiclesRecompute,BenchmarkArrivalsGET,BenchmarkArrivalsRecompute' \
			-speedup 'BenchmarkVehiclesGET:BenchmarkVehiclesRecompute:10,BenchmarkArrivalsGET:BenchmarkArrivalsRecompute:10'

bench-all:
	$(GO) test -bench=. -benchmem

# bench-vet compiles, vets and unit-tests the fleet benchmark (bench/, a
# module of its own that builds against internal/server), so a change to
# the surface it uses fails here rather than at the next benchmark run.
bench-vet:
	cd bench && $(GO) vet . && $(GO) test .
