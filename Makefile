# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

.PHONY: build test race bench bench-smoke bench-click bench-ab loc vet race-jobs race-derived race-store race-scan lint lint-self fmt-check fuzz-smoke metrics-smoke vuln

# The scheduler subsystem and the cores budget its jobs' fan-out borrows
# from, under the race detector (also a CI step) — the policy-against-
# model test (TestSchedAgainstModel) and the dispatch-order regression
# (TestDrainedTenantDoesNotSkipNext) are in the packages named — plus
# extra iterations of the backpressure overload stress
# (TestSchedulerOverloadStress).
race-jobs:
	go test -race ./internal/jobs/... ./internal/session/... ./internal/cores/...
	go test -race -count=3 -run 'Overload' ./internal/jobs/...

# Concurrent builds on one explorer under the race detector (also a CI
# step): derived builds sharing one cached parent's vectors, cold builds
# contending for the explorer's one scratch matrix, the cluster-layer
# subsets of one lazy parent, CLARA's per-sample runs subsetting one
# shared lazy parent, and map-cache clones building their regions' rows
# and highlight statistics in one shared routing.
race-derived:
	go test -race -count=2 -run 'ConcurrentDerived|ConcurrentColdBuilds|DerivedOraclesConcurrent|ClonesShareRegionRows|HighlightConcurrent' ./internal/core/... ./internal/cluster/...

# The storage engine's buffer pool and segment scans under the race
# detector (also a CI step): concurrent readers through one pool,
# eviction under pinning, single-flight load dedup — plus the counter
# conservation laws (hits+misses == lookups, evictions <= inserts) on
# the buffer pool's registry mirrors and the core reuse cache.
race-store:
	go test -race -count=3 -run 'Pool|Concurrent' ./internal/store/...
	go test -race -count=2 -run 'Conservation' ./internal/core/...

# The scan and the router under the race detector (also a CI step):
# concurrent scans (whole-relation, row-set, limited), tree routes and
# column gathers hammering one shared segment through a pool that holds
# a fraction of its pages, so the pool's single-flight loads and
# evictions run under them, first reads of one shared routing's nodes,
# and first fingerprints and run reads of one shared row set.
race-scan:
	go test -race -count=2 -run 'TestScanConcurrent|TestRouteRowsConcurrent|TestRowSetConcurrent' ./internal/store/

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# The repo's own analyzer suite (internal/analysis, driven by
# cmd/blaeu-lint): determinism over the algorithmic core, fanout over
# the build packages, lockcheck over the concurrent tiers, ctxcheck over
# the request stack, plus the
# interprocedural analyzers (blockcheck, hotpath, metricscheck) with
# cross-package facts. A clean exit is a CI gate; suppress individual
# findings only with a reasoned `//blaeu:nolint <analyzer> <reason>`
# comment.
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
# filter expressions — parsed, then scanned by the batch kernels against
# the reference — Select-Project queries, parsed and held to their own
# rendering, session open-options JSON, segment files) and over the row
# set (random ascending ids against the []int reference) so the
# harnesses and corpora don't bit-rot. Real fuzzing: raise -fuzztime
# and let it run.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=10s ./internal/store
	go test -run='^$$' -fuzz=FuzzParsePredicate -fuzztime=10s ./internal/store
	go test -run='^$$' -fuzz=FuzzParseQuery -fuzztime=10s ./internal/store
	go test -run='^$$' -fuzz=FuzzRowSet -fuzztime=10s ./internal/store
	go test -run='^$$' -fuzz=FuzzOpenOptions -fuzztime=10s ./internal/server
	go test -run='^$$' -fuzz=FuzzSegmentFooter -fuzztime=10s ./internal/store/segment
	go test -run='^$$' -fuzz=FuzzSegmentOpen -fuzztime=10s ./internal/store/segment

# Known-vulnerability scan over the module and its (stdlib-only)
# dependency graph. Installs govulncheck if absent — needs network, so
# this is primarily a CI step.
vuln:
	command -v govulncheck >/dev/null 2>&1 || go install golang.org/x/vuln/cmd/govulncheck@latest
	govulncheck ./...

# Full benchmark pass (minutes).
bench:
	go test -bench=. -benchmem -run '^$$' .

# One iteration of every benchmark — the CI bit-rot guard. Includes the
# storage-engine filter benchmarks, the scan benchmarks (limit pushdown,
# sample gathers), the kernels behind the filter and highlight clicks
# (BenchmarkFilterKernel*, BenchmarkStatsRows*) and the row set's run
# reads in each form (BenchmarkRowSetRuns).
bench-smoke:
	go test -bench=. -benchtime=1x -run '^$$' .
	go test -bench=. -benchtime=1x -run '^$$' ./internal/store

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

# Scrape-validity gate (also a CI step): starts an in-process server,
# runs a build, fetches /metrics and fails on unparseable lines,
# samples without a # TYPE, or duplicate series.
metrics-smoke:
	go test -count=1 -run 'MetricsScrape|MetricsJSONSnapshot|ByteStable' ./internal/server/
