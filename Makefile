# Tier-1 checks, metrics and the committed optimality-gap report.
#
#   make             build + test
#   make check       fmt-check + build + vet + test + race + fuzz-smoke
#                    + serve-smoke + perfbench-vet + perfbench-test
#                    (tier-1, everything CI runs)
#   make fmt-check   fail if any Go file needs gofmt
#   make verify      alias for check
#   make fuzz-smoke  run each native fuzz target briefly (10s apiece)
#   make serve-smoke build mdserve and drive it end to end over TCP
#   make metrics     regenerate metrics.json + OPTGAP.md and sanity-check them
#   make opt-gap          regenerate the OPTGAP.md optimality-gap report
#   make perfbench-vet    vet the separate perfbench benchmark module
#   make perfbench-test   run the perfbench benchmark module's tests
#   make profile          CPU+heap pprof profiles of the IMS corpus benchmark
#
# Wall-time performance is measured by perfbench (BENCHMARK.json):
# python3 perfbench/run.py

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet fmt-check bench perfbench-vet perfbench-test bench-alloc metrics opt-gap profile fuzz-smoke serve-smoke check verify clean

all: build test

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package, so
# accidental order dependencies between tests fail in CI instead of
# lurking.
test:
	$(GO) test -shuffle=on ./...

# The worker pools in internal/parallel and their batch callers
# (internal/sched, internal/tables) are only meaningfully exercised
# under -race.
race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

# gofmt gate: lists the offending files and fails if any file needs
# formatting.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem ./...

# The query hot-path benchmarks that pin the observability bargain
# (metrics disabled must stay at 0 allocs/op) plus the arena pins:
# module Reset and steady-state arena scheduling allocate nothing. The
# generating-set pin bounds Algorithm 1's allocations on the Cydra 5.
bench-alloc:
	$(GO) test -run '^$$' -bench 'BenchmarkCheck|BenchmarkAssign' -benchmem ./internal/query/
	$(GO) test -run '^TestResetDoesNotAllocate$$' -count=1 -v ./internal/query/
	$(GO) test -run '^TestArenaSteadyStateZeroAlloc$$' -count=1 -v ./internal/sched/
	$(GO) test -run '^$$' -bench '^BenchmarkGeneratingSetCydra5$$' -benchmem ./internal/core/
	$(GO) test -run '^TestGeneratingSetAllocs$$' -count=1 -v ./internal/core/

# A machine-readable profile of a representative evaluation run (Table 6
# exercises scheduling, reduction, the cache and the worker pool). The
# emitted JSON is structurally validated by cmd/paper itself; the loop
# below additionally checks that every expected scope contributed.
metrics:
	$(GO) run ./cmd/paper -table 6 -loops 120 -parallel 2 -metrics metrics.json > /dev/null
	@for s in query sched core parallel; do \
		grep -q "\"$$s\." metrics.json || { echo "metrics.json: missing scope $$s" >&2; exit 1; }; \
	done
	@echo "metrics.json OK"
	$(GO) run ./cmd/paper -opt-gap OPTGAP.md > /dev/null
	@git diff --quiet -- OPTGAP.md || { echo "OPTGAP.md: regeneration changed the committed report" >&2; exit 1; }
	@echo "OPTGAP.md OK"

# The committed optimality-gap report: the stratified corpus scheduled by
# the exact searcher vs the IMS heuristic, per stratum. Fully
# deterministic (fixed corpus seed, deterministic schedulers), so
# regeneration on any host must reproduce the committed bytes.
opt-gap:
	$(GO) run ./cmd/paper -opt-gap OPTGAP.md

# perfbench is its own module (replace repro => ../), so the root
# `go build ./...` never compiles it. Vetting it here makes a change to
# an API it uses (query.Module, sched, serve) fail `make check` instead
# of the benchmark run.
perfbench-vet:
	cd perfbench && GOWORK=off GOFLAGS=-mod=mod $(GO) vet ./...

# The benchmark module's own tests (~20s) run the code it measures
# through the repo's packages; TestOptPool pins the exact-search
# open/proven pool, which a change to the branch-and-bound search can
# move.
perfbench-test:
	cd perfbench && GOWORK=off GOFLAGS=-mod=mod $(GO) test ./...

# pprof profiles of the scheduler hot path: BenchmarkIMSCorpusRangeScan
# (internal/sched) schedules 200 corpus loops through IMS on the reduced
# bitvector, whose range scans are the bit-parallel verdict scan. The
# profiles and the test binary they symbolize against (sched.test) are
# written to the root of the checkout. Inspect with
# `go tool pprof -top cpu.pprof` (or mem.pprof).
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkIMSCorpusRangeScan$$' \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/sched/
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof -top cpu.pprof"

# Brief runs of the native fuzz targets. FuzzReducePreservesF fuzzes the
# paper's theorem (reduction preserves the forbidden-latency matrix);
# FuzzServeBatchDecode pins that no bytes on the wire can panic or 5xx
# the batch endpoint. Kept out of `make test` so `go test ./...` stays
# fast; corpus regressions in testdata/ still run there.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReducePreservesF$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzParseObjective$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzServeBatchDecode$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzServeSessionStream$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzOptimalNeverInvalid$$' -fuzztime $(FUZZTIME) ./internal/sched/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/mdl/

# End-to-end daemon smoke: build cmd/mdserve, boot it on an ephemeral
# port, run one reduce + one batch + a metrics scrape over real TCP, then
# SIGTERM and require a clean drain. Build-tagged so plain `go test`
# skips it.
serve-smoke:
	$(GO) test -tags smoke -run '^TestServeSmoke$$' -count=1 ./internal/serve/

check: fmt-check build vet test race fuzz-smoke serve-smoke perfbench-vet perfbench-test

verify: check

clean:
	$(GO) clean ./...
