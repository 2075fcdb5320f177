# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: build test race bench bench-smoke bench-click bench-ab loc quality vet race-jobs race-build race-store race-scan lint lint-self fmt-check fuzz-smoke metrics-smoke vuln

# The scheduler subsystem and the cores budget its jobs' fan-out borrows
# from, under the race detector (also a CI step) — the policy-against-
# model test (TestSchedAgainstModel) and the dispatch-order regression
# (TestDrainedTenantDoesNotSkipNext) are in the packages named — plus
# extra iterations of the backpressure overload stress
# (TestSchedulerOverloadStress).
race-jobs:
	go test -race ./internal/jobs/... ./internal/session/... ./internal/cores/...
	go test -race -count=3 -run 'Overload' ./internal/jobs/...

# Concurrent builds under the race detector (also a CI step): builds on
# one explorer and on sessions of one Dataset contending for the
# dataset's build scratch (TestConcurrentColdBuilds*), builds of
# sessions on one Dataset gathering their samples and transforming their
# vectors into the slabs of that scratch as other builds hand them back
# (TestConcurrentBuildsShareSlabs), builds over themes of different
# widths fitting their description trees in that scratch's presorted
# lists, regrowing them while another build holds the other scratch
# (TestConcurrentFitsShareTreeScratch), two sessions' selects through
# CLARA over lazy oracles (their samples above the dataset's
# PAMThreshold), each sweep drawing its shared CLARA samples and
# Monte-Carlo rounds into its own scratch's slots and filling their
# matrices in one fan-out, and zooms through exact PAM over the
# scratch's matrix, regrowing those buffers while another build holds
# the other scratch (TestConcurrentClusterScratch), two sweeps over one
# lazy oracle, each in its own cluster.Scratch, each filling its nine
# matrices from it in one fan-out (TestConcurrentSweepsShareLazyOracle),
# subset matrices of one lazy oracle filled and read at once, and
# CLARA's samples filling their matrices from one shared lazy oracle
# and reading its rows for their assignments
# (TestLazySubsetsConcurrent*), the states holding one cached map
# building its regions' rows and highlight statistics in its one
# routing, a map-cache hit running
# while its cached map's state is annotated (TestAnnotateDuringHitBuild),
# and sessions opened at once on one Dataset, each adding a theme and
# building a map over the shared dependency graph and themes
# (TestDatasetConcurrentOpens).
race-build:
	go test -race -count=2 -run 'ConcurrentColdBuilds|ConcurrentBuildsShareSlabs|ConcurrentFitsShareTreeScratch|ConcurrentClusterScratch|ConcurrentSweepsShareLazyOracle|LazySubsetsConcurrent|HitSharesRegionRows|HighlightConcurrent|AnnotateDuringHitBuild|DatasetConcurrentOpens' ./internal/core/... ./internal/cluster/...

# The storage engine's buffer pool and segment scans under the race
# detector (also a CI step): concurrent readers through one pool,
# eviction under pinning, single-flight load dedup, the first string
# predicates over a column building its value -> code map — plus the counter
# conservation laws (hits+misses == lookups, evictions <= inserts) on
# the buffer pool's registry mirrors and the core reuse cache.
race-store:
	go test -race -count=3 -run 'Pool|Concurrent' ./internal/store/...
	go test -race -count=2 -run 'Conservation' ./internal/core/...

# The router under the race detector (also a CI step): concurrent
# scans (whole-relation, row-set and limited, all one-split routes),
# tree routes and column gathers hammering one shared segment through a
# pool that holds a fraction of its pages, so the pool's single-flight
# loads and evictions run under them, first reads of one shared
# routing's nodes, fingerprints and run reads of one shared row set,
# and concurrent routes through trees deeper than one pass descends,
# whose further passes take run scratch from the pool every route
# shares (TestRouteDeepConcurrent).
race-scan:
	go test -race -count=2 -run 'TestScanConcurrent|TestRouteRowsConcurrent|TestRowSetConcurrent|TestRouteDeepConcurrent' ./internal/store/

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# The repo's own analyzer suite (internal/analysis, driven by
# cmd/blaeu-lint over every package in one process): determinism over
# the algorithmic core, fanout over the build packages, ctxcheck over
# the request stack, and the interprocedural analyzers with
# cross-package facts — lockcheck (may-block facts) over the concurrent
# tiers, hotpath and metricscheck everywhere. A clean exit is a CI gate;
# suppress individual findings only with a reasoned
# `//blaeu:nolint <analyzer> <reason>` comment.
lint:
	go run ./cmd/blaeu-lint ./...

# The linter held to its own rules: blaeu-lint must be clean on its own
# source (suppression hygiene, hot-path discipline, metrics contract —
# the scope-free analyzers all apply here). A lint CI job gate.
lint-self:
	go run ./cmd/blaeu-lint ./internal/analysis/... ./cmd/blaeu-lint

# gofmt cleanliness: fails listing any file that needs formatting.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Short fuzz passes over the untrusted-input parsers (CSV ingestion,
# its float cells held to strconv bit for bit, filter expressions —
# parsed, then scanned by the batch kernels against the reference —
# Select-Project queries, parsed and held to their own
# rendering, then executed on both backings and held to each other,
# filter expressions posted to a session with a map at the HTTP edge
# (status, JSON body, rollback), action bodies staged by core.Prepare
# on an explorer with a map, segment files), over the row set (random
# ascending ids against the []int reference) and over the router
# (random split trees and selections against the row-by-row reference
# route, and its one-split case, the scan operators, against the
# reference filter) so the harnesses and corpora don't bit-rot.
# Real fuzzing: raise -fuzztime and let it run.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=10s ./internal/store
	go test -run='^$$' -fuzz=FuzzParseFloat -fuzztime=10s ./internal/store/csvdec
	go test -run='^$$' -fuzz=FuzzParsePredicate -fuzztime=10s ./internal/store
	go test -run='^$$' -fuzz=FuzzParseQuery -fuzztime=10s ./internal/store
	go test -run='^$$' -fuzz=FuzzExecute -fuzztime=10s ./internal/store
	go test -run='^$$' -fuzz=FuzzRowSet -fuzztime=10s ./internal/store
	go test -run='^$$' -fuzz=FuzzRoute -fuzztime=10s ./internal/store
	go test -run='^$$' -fuzz=FuzzFilterExpr -fuzztime=10s ./internal/server
	go test -run='^$$' -fuzz=FuzzPrepareAction -fuzztime=10s ./internal/core
	go test -run='^$$' -fuzz=FuzzSegmentFooter -fuzztime=10s ./internal/store/segment
	go test -run='^$$' -fuzz=FuzzSegmentOpen -fuzztime=10s ./internal/store/segment

# Known-vulnerability scan over the module and its (stdlib-only)
# dependency graph. Installs govulncheck if absent — needs network, so
# this is primarily a CI step.
vuln:
	command -v govulncheck >/dev/null 2>&1 || go install golang.org/x/vuln/cmd/govulncheck@latest
	govulncheck ./...

# Full benchmark pass (minutes): the root package's and the PAM pair in
# internal/cluster.
bench:
	go test -bench=. -benchmem -run '^$$' . ./internal/cluster

# One iteration of every benchmark — the CI bit-rot guard. Includes the
# PAM engine beside the textbook SWAP it is held to (BenchmarkPAM,
# BenchmarkPAMClassic in internal/cluster), the storage-engine filter
# benchmarks, the scan benchmarks (limit pushdown; the sample gathers,
# projected and full-width, on both backings: BenchmarkScanGatherProjected
# and BenchmarkGatherMaterialized, /mem and /seg), the
# kernels behind the filter and highlight clicks (BenchmarkFilterKernel*,
# BenchmarkStatsRows*: /x counts a full-precision column's distinct
# values in a table, /x4 a 4-decimal column's in a bitmap, /w4 a wide
# 4-decimal column's in a table split over hash partitions in memory), key
# detection over an integer key (BenchmarkIsLikelyKeyInt), the row
# set's run reads and fingerprint in each form (BenchmarkRowSetRuns,
# BenchmarkRowSetFingerprint), a string
# equality's compile, first and later (BenchmarkCompileStrEq), a string
# filter click and LIMIT query (BenchmarkFilterStrEq), a new
# session's first map on a shared Dataset (BenchmarkSessionFirstBuild),
# AutoK in a fresh and in a reused cluster.Scratch (BenchmarkAutoK), the
# exact and the CLARA sweep at the sample sizes below the crossover
# (BenchmarkCrossover), a cold select at the engine's default sample
# (BenchmarkColdSelectDefault),
# the ingest decoder on the ledger's inputs (BenchmarkReadCSV,
# BenchmarkBuildSegment), one float cell (BenchmarkParseFloat) and one
# buffer-pool hit and miss (BenchmarkPoolGet).
bench-smoke:
	go test -bench=. -benchtime=1x -run '^$$' . ./internal/cluster
	go test -bench=. -benchtime=1x -run '^$$' ./internal/store ./internal/store/csvdec ./internal/store/segment

# The click ledger (bench/README.md): every workload of BENCHMARK.json
# once, over HTTP, with the end-to-end metrics the acceptance gate reads.
bench-click:
	go run ./bench/load

# A clock claim, stated the way a noisy box allows: the working tree
# against BASE on one ledger workload in PAIRS interleaved pairs of
# runs (alternating which side goes first, both binaries built from
# this tree's bench/load), per metric each side's median and quartiles
# and the pairs won. TRACE=1 compares the traced run's per-layer
# metrics instead of the three end-to-end ones.
BASE ?= HEAD
WORKLOAD ?= explore_seg
PAIRS ?= 10
TRACE ?= 0
bench-ab:
	go run ./cmd/blaeu-ab -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS) -trace $(TRACE)

# The size figures simplification PRs are judged by: non-test Go lines
# repo-wide (bench/ and testdata excluded), in internal/store,
# internal/cluster, internal/jobs and internal/session, and the number
# of core.Options fields. The CI test job prints them, so every log
# carries the figures.
loc:
	@echo "non-test lines, repo:             $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l)"
	@echo "non-test lines, internal/store:   $$(ls internal/store/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "non-test lines, internal/cluster: $$(ls internal/cluster/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "non-test lines, internal/jobs:    $$(ls internal/jobs/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "non-test lines, internal/session: $$(ls internal/session/*.go | grep -v _test.go | xargs cat | wc -l)"
	@echo "core.Options fields:              $$(awk '/^type Options struct/{on=1;next} on&&/^}/{exit} on&&!/^\t\/\//&&NF{n+=gsub(/,/,",")+1} END{print n}' internal/core/options.go)"

# The paper's claims at full scale: every experiment of blaeu-bench at
# scale 1 under seeds 1-10, the table the claim tests' reduced-scale
# bounds (internal/experiments) stand in for. Not a CI step: it takes
# minutes.
quality:
	@for seed in 1 2 3 4 5 6 7 8 9 10; do \
		go run ./cmd/blaeu-bench -exp all -scale 1 -seed $$seed || exit 1; done

# Scrape-validity gate (also a CI step): starts an in-process server,
# runs a build, fetches /metrics and fails on unparseable lines,
# samples without a # TYPE, or duplicate series.
metrics-smoke:
	go test -count=1 -run 'MetricsScrape|MetricsJSONSnapshot|ByteStable' ./internal/server/
