GO ?= go

SCHED_PKGS := ./internal/sched/... ./internal/deque/... ./internal/loop/...

BENCH_PATTERN := BenchmarkSpawn|BenchmarkSpawnBatch|BenchmarkStealThroughput|BenchmarkWakeToFirstTask|BenchmarkForFine|BenchmarkAutoSteadyState

# The three headline benchmarks the benchgate target re-measures: the
# fine-grained per-chunk tax, the wake latency, and the steal handoff rate.
GATE_PATTERN := BenchmarkForFineHybrid|BenchmarkWakeToFirstTask|BenchmarkStealThroughput

STRESS_PATTERN := TestCancel|TestPanickingOwner|TestDemandRetiredOnPark|TestDemandQuiesces|TestMeetDemand|TestParkingRetains|TestParkUnpark|TestForErr|TestForEachErr|TestForCtx|TestPanicPropagation|TestStealHalf|TestStealBack|TestRangeSlotAbandon|TestGate|TestConcurrentIndependentLoops|TestCrossLoopCancelStress|TestTryForBackpressure|TestForDegradesInline|TestAdmissionPolicy|TestMetricsConcurrentStress|TestStealWakeChaining|TestTryStealPrefersLocal|TestHierarchicalRangeSteal

# Packages carrying seeded golden datasets (testdata/golden_*.json).
GOLDEN_PKGS := ./internal/sim/ ./internal/nas/

.PHONY: check race bench benchdiff benchgate stress lint protodoc servertest golden golden-regen repro perfbench-check

# Every registered schedlint analyzer; `make lint` fails if a
# registration regression drops one.
LINT_ANALYZERS := 8

## check: vet, build and test everything (tier-1 gate)
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

## perfbench-check: vet and test the benchmark module (perfbench/ is its
## own Go module, so the root `go build ./...` never compiles it; this
## catches a refactor that drops an API the benchmark uses)
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## lint: vet plus the module's own concurrency-invariant analyzers
## (atomicmix, cacheline, lockorder, loopcapture, looperr,
## metricsample, noalloc, protocol — see cmd/schedlint). Asserts the
## registered-analyzer count first, so a registration regression fails
## loudly instead of silently checking less.
lint:
	$(GO) vet ./...
	@n=$$($(GO) run ./cmd/schedlint -list | wc -l); \
	if [ "$$n" -ne "$(LINT_ANALYZERS)" ]; then \
		echo "lint: expected $(LINT_ANALYZERS) registered analyzers, schedlint -list reports $$n" >&2; \
		exit 1; \
	fi
	$(GO) run ./cmd/schedlint ./...

## protodoc: regenerate the protocol tables in DESIGN.md from the
## //sched:protocol annotations (checked in CI by TestProtodocInSync)
protodoc:
	$(GO) run ./cmd/schedlint -protodoc DESIGN.md ./...

## race: race-detect the scheduler hot path and the metrics plane
## (includes the stress tests)
race:
	$(GO) test -race -count=1 $(SCHED_PKGS) ./internal/metrics/

## stress: race-detect the cancellation, error-propagation, steal-path
## and metrics-plane stress tests (public API package included)
stress:
	$(GO) test -race -count=1 -run '$(STRESS_PATTERN)' . $(SCHED_PKGS) ./internal/metrics/

## golden: run the seeded golden-run regression tests — simulator policy
## runs (the 4×8 paper grid plus the scaled 8×8/8×32 victim-policy
## grids) and NAS kernel outputs must match testdata/golden_*.json bit
## for bit (a policy or numerics change must regenerate them
## deliberately; -update merges by run key, so extending a grid never
## silently invalidates previously pinned rows)
golden:
	$(GO) test -count=1 -run TestGolden $(GOLDEN_PKGS)

## golden-regen: regenerate the golden datasets after a deliberate
## policy or numerics change; commit the diff with the change itself
golden-regen:
	$(GO) test -count=1 -run TestGoldenEquivalence -update $(GOLDEN_PKGS)
	$(GO) test -count=1 -run TestGolden $(GOLDEN_PKGS)

## repro: regenerate the paper-reproduction artifacts under out/
## (untracked; see EXPERIMENTS.md for the committed summary)
repro:
	mkdir -p out
	$(GO) run ./cmd/paperrepro -html out/report.html | tee out/paperrepro_output.txt

## bench: run the scheduler benchmarks and regenerate BENCH_sched.json
## (two repeats; benchjson keeps the best per name — scheduling noise on
## a shared machine only ever inflates an op, so min is the stable stat)
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' \
		-benchtime 0.5s -count=2 ./internal/sched/ | tee /tmp/bench_sched.txt
	$(GO) run ./cmd/benchjson -in /tmp/bench_sched.txt -out BENCH_sched.json

## servertest: smoke-test the multi-tenant serving example — self-driving
## load run with a concurrent giant batch loop; exits non-zero if the
## service collapses (zero throughput, unbounded P99, goroutine blow-up)
servertest:
	$(GO) run ./examples/server -bench -duration 3s -clients 8 -giant

## benchdiff: rerun the benchmarks and fail on a >10% ns/op regression
## against the committed BENCH_sched.json (writes nothing)
benchdiff:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' \
		-benchtime 0.5s -count=1 ./internal/sched/ | tee /tmp/bench_sched_diff.txt
	$(GO) run ./cmd/benchjson -in /tmp/bench_sched_diff.txt -out BENCH_sched.json -diff -threshold 0.10

## benchgate: the CI perf gate — run the three headline benchmarks three
## times each (benchjson keeps the best repeat per name, filtering
## one-sided scheduling noise) and fail on a >10% ns/op regression
## against the committed BENCH_sched.json (writes nothing)
benchgate:
	$(GO) test -run '^$$' -bench '$(GATE_PATTERN)' \
		-benchtime 0.5s -count=3 ./internal/sched/ | tee /tmp/bench_sched_gate.txt
	$(GO) run ./cmd/benchjson -in /tmp/bench_sched_gate.txt -out BENCH_sched.json -diff -threshold 0.10
