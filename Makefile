GO ?= go

.PHONY: build test debug race lint lint-json lint-hot qvet fuzz-smoke vet vet-debug bench bench-verify bench-hom bench-hom-verify bench-alloc bench-alloc-verify search-verify obs-verify serve-smoke cover all

all: build vet vet-debug test lint qvet

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-debug repeats the stdlib analyzers with the keyedeq_debug tag so
# the invariant-assertion build stays vet-clean too.
vet-debug:
	$(GO) vet -tags keyedeq_debug ./...

test:
	$(GO) test ./...

# debug runs the test suite with the keyedeq_debug build tag, enabling
# the internal/invariant runtime assertions.
debug:
	$(GO) test -tags keyedeq_debug ./...

race:
	$(GO) test -race ./...

lint:
	$(GO) run ./cmd/keyedeq-lint ./...

# lint-json emits the machine-readable report (findings + suppression
# count) that CI turns into PR annotations.
lint-json:
	$(GO) run ./cmd/keyedeq-lint -format=json ./...

# lint-hot runs only the hot-path allocation rules (seeded from
# //keyedeq:hot markers) in the github format, so CI annotates each
# per-iteration allocation inline on the PR.
lint-hot:
	$(GO) run ./cmd/keyedeq-lint -format=github \
		-rules hotalloc,preallocate,iface-box,mapkey,escapes ./...

# qvet runs the semantic query analyzer over the repo's shipped query,
# program, mapping, and schema inputs (see internal/qvet).
qvet:
	$(GO) run ./cmd/keyedeq-vet -s @examples/vet/company.schema \
		examples/vet/queries.cq examples/vet/views.prog examples/vet/company.schema
	$(GO) run ./cmd/keyedeq-vet -s @examples/vet/company.schema \
		-dst @examples/vet/archive.schema \
		examples/vet/alpha.map examples/vet/archive.schema
	$(GO) run ./cmd/keyedeq-vet -s @internal/qvet/testdata/base.schema \
		-dst @internal/qvet/testdata/dst.schema \
		internal/qvet/testdata/base.schema internal/qvet/testdata/dst.schema \
		$(wildcard internal/qvet/testdata/*/good.*)

FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test ./internal/cq -run '^$$' -fuzz '^FuzzParseCQ$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cq -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/instance -run '^$$' -fuzz '^FuzzParseInstance$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/schema -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/program -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/qvet -run '^$$' -fuzz '^FuzzQVet$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzCanonicalKey$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzRankRows$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzCanonicalKernel$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzPresentationIdentity$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analysis -run '^$$' -fuzz '^FuzzAllowDirective$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analysis -run '^$$' -fuzz '^FuzzHotDirective$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cq -run '^$$' -fuzz '^FuzzInternRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzStoreReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chase -run '^$$' -fuzz '^FuzzCanonicalFrozen$$' -fuzztime $(FUZZTIME)

# bench writes the batch engine's machine-readable regression record
# (engine-vs-sequential wall time, node counts, cache hit rates).
# bench-verify is the CI gate over it: parse + engine not slower.
bench:
	$(GO) run ./cmd/keyedeq-bench -json BENCH_engine.json

bench-verify:
	$(GO) run ./cmd/keyedeq-bench -verify-bench BENCH_engine.json

# bench-hom writes the adaptive-vs-naive homomorphism search record
# (the planned_* JSON keys name the measured default runtime);
# bench-hom-verify is the CI gate over it: verdict agreement, at least
# 1.5x faster overall, at least 5x fewer nodes on the wide family, and
# no family below 1.0x — the adaptive runtime must never lose to naive.
bench-hom:
	$(GO) run ./cmd/keyedeq-bench -record hom -json BENCH_homsearch.json

bench-hom-verify:
	$(GO) run ./cmd/keyedeq-bench -record hom -verify-bench BENCH_homsearch.json

# bench-alloc rewrites the hot-path allocs/op record (run after an
# intentional allocation-profile change); bench-alloc-verify is the CI
# gate: re-measure in process and require at most 110% of the committed
# record, which itself must sit at or under the pre-fix seed.
bench-alloc:
	$(GO) run ./cmd/keyedeq-bench -record alloc -json BENCH_alloc.json

bench-alloc-verify:
	$(GO) run ./cmd/keyedeq-bench -record alloc -verify-bench BENCH_alloc.json

# search-verify gates the homomorphism search under the race detector:
# the adaptive-vs-naive differential wall over every corpus family
# (verdicts, witnesses, and the arm each family takes), the in-package
# arm-vs-oracle parity suites, the compiled query form against the
# oracle's equality classes, Validate and HeadType (which read that
# form) against their map-based references, and the cancellation
# contracts; the parity of the decision paths (Engine.Decide against
# the containment procedures on the E1 corpus, Engine.Run against
# Engine.Decide on the same corpus with poisoned jobs, the theory
# procedures against the containment procedures with no TGDs); the
# canonizer's kernel against the kernel it replaced and the golden keys
# canonicalized concurrently; the stale-scratch walls (the corpus's
# searches as listed, reversed and each after a search that grows every
# pooled table, and the golden keys each after a query that exhausts
# the tie-break budget); then the chase freeze tests (the frozen
# canonical build against its value-level oracle over every corpus
# family) and the allocation record.
search-verify:
	$(GO) test -race ./internal/cq -run 'TestStreamed|TestScanID|TestAdaptive|TestInterned|TestCancelObserved|TestCompiledMatchesEqClasses|TestValidateMatchesOracle' -count=1
	$(GO) test -race ./internal/containment -run 'TestPlannedVsNaive|TestInterned|TestStreamed|TestAdaptive|TestTheoryStatsMatchContainment|TestStaleScratch' -count=1
	$(GO) test -race ./internal/engine -run 'TestDecideMatchesContainment|TestRunMatchesDecide|TestCanonicalKernelMatchesOracle|TestCanonicalizeConcurrentMatchesGolden|TestCanonicalizeAfterBudgetExhaustion' -count=1
	$(GO) test ./internal/chase -run 'TestDenseChase|TestCanonicalDatabaseFreeze|TestCanonicalFrozen' -count=1
	$(GO) run ./cmd/keyedeq-bench -record alloc -verify-bench BENCH_alloc.json

# obs-verify gates the observability layer: the reconciliation smoke
# tests (exported metric totals must equal the summed per-job Stats),
# the worker-count invariance test (results, totals and the
# canonicalization count identical at 1, 2 and 8 workers), the count of
# canonicalizations only passing pairs use, plus the
# in-process overhead measurement (metrics collection at most 2% over
# the unobserved path, adaptive node totals identical to the committed
# H1 record).
obs-verify:
	$(GO) test ./internal/obs -run 'TestBatchMetricsReconcile|TestMetamorphicComponentNodes' -count=1
	$(GO) test ./internal/engine -run 'TestRunWorkerCountInvariance|TestCanonicalizeOnlyPassingPairs' -count=1
	$(GO) run ./cmd/keyedeq-bench -verify-obs BENCH_homsearch.json

# serve-smoke gates the daemon end to end: boot with a verdict store,
# decide over HTTP, kill -9, restart on the same store and require the
# verdict back as a warm cache hit; plus the SIGTERM graceful-drain path.
serve-smoke:
	$(GO) test ./cmd/keyedeqd -run 'TestServeSmoke|TestDrainSmoke' -count=1 -v

# cover enforces the decision-path coverage floor (engine, containment,
# chase, the obs layer, the interning/encoding layers, the relational
# algebra, the verdict store and the daemon's handler must each stay at
# or above 75% statement coverage).
COVER_FLOOR ?= 75
COVER_PKGS = ./internal/engine ./internal/containment ./internal/chase ./internal/obs ./internal/value ./internal/instance ./internal/ra ./internal/store ./internal/serve

cover:
	@for pkg in $(COVER_PKGS); do \
		pct=$$($(GO) test -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{print (p >= f) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "$$pkg: coverage $$pct% below floor $(COVER_FLOOR)%"; exit 1; fi; \
		echo "$$pkg: coverage $$pct% (floor $(COVER_FLOOR)%)"; \
	done
