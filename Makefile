# Build, test and benchmark entry points. `make ci` is the tier-1 gate:
# build + vet + tests, as ROADMAP.md specifies.

GO ?= go

.PHONY: build test race race-hot vet fmt-check bench bench-smoke ci figures-output audit check-stats bench-json serve-smoke soak-smoke fuzz-smoke telemetry-smoke tenant-smoke cluster-smoke bench-diff

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would change any Go file, listing the files.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; fi

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hot covers the packages with real concurrency (the sweep pool sits in
# the root package; sim and hashmap are what the workers hammer; serve's
# workers, resolver fan-out, cluster glue and tenant ledger share one server
# mutex).
race-hot:
	$(GO) test -race ./internal/sim ./internal/hashmap ./internal/serve .

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# bench-smoke runs each benchmark once — compile + one iteration, a CI-speed
# check that the benchmarks still work — then pins the profiler-disabled
# record paths, the floored steady-state resource calendar, the shared
# machine Access wrapper's L1-hit path and the dense directory's lookups of
# touched lines at zero allocations (the alloc-regression gate).
bench-smoke:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./...
	$(GO) test -run 'ZeroAlloc' ./internal/obs ./internal/sim ./internal/machine ./internal/hashmap

ci: build vet test race-hot

# figures_output.txt is a build artifact (gitignored), regenerated on demand.
figures-output:
	$(GO) run ./cmd/figures -quick > figures_output.txt

# audit runs the per-transaction coherence auditor on one configuration per
# machine type; any protocol-invariant violation fails the target.
audit:
	$(GO) run ./cmd/aggsim -arch agg  -app ocean -scale 0.05 -threads 8 -pressure 0.75 -audit >/dev/null
	$(GO) run ./cmd/aggsim -arch numa -app ocean -scale 0.05 -threads 8 -pressure 0.75 -audit >/dev/null
	$(GO) run ./cmd/aggsim -arch coma -app ocean -scale 0.05 -threads 8 -pressure 0.75 -audit >/dev/null
	@echo "audit: all three machine types clean"

# check-stats is the perf-regression gate: the fixed baseline matrix must
# match testdata/golden_stats.json within per-metric tolerances, and the
# gate must itself catch an injected 5% latency regression (self-test).
# Regenerate the golden deliberately with `go run ./cmd/checkstats -update`.
check-stats:
	$(GO) run ./cmd/checkstats
	@if $(GO) run ./cmd/checkstats -inject 0.05 >/dev/null 2>&1; then \
		echo "check-stats: SELF-TEST FAILED - injected 5% regression not caught"; exit 1; \
	else echo "check-stats: self-test ok (injected 5% regression caught)"; fi

# serve-smoke is the aggsimd end-to-end gate, run under the race detector:
# boot the daemon on an ephemeral port, submit a small Figure 6 batch twice
# (the second must be served byte-identical from cache, proven by the
# engine-cycle counters), storm it at 4x the admission window (bounded-queue
# rejections), shut down gracefully, and restart against the persisted
# cache index.
serve-smoke:
	$(GO) test -race -count 1 -run 'TestServeSmoke|TestSmokeMetricsArtifact' ./cmd/aggsimd

# soak-smoke is the observability/SLO gate, run under the race detector: a
# concurrent client storm through the real daemon, audited by the soak
# harness — p99 submit/status latency SLOs, bounded 429 pushback, the
# exactly-once simulation proof from the engine counters, complete ordered
# lifecycle event chains for every job, and a /metrics.prom exposition that
# passes the strict Prometheus text parser.
soak-smoke:
	$(GO) test -race -count 1 -run 'TestSoakSmoke' -v ./cmd/aggsimd

# fuzz-smoke runs the tenants-file parser's fuzz target for ten seconds on
# top of its committed seed corpus (internal/serve/testdata/fuzz).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseTenantsFile -fuzztime 10s ./internal/serve

# telemetry-smoke is the flight-recorder end-to-end gate, run under the race
# detector: every job head-sampled into the recorder, results byte-identical
# to a direct run (record-only proof), all three artifacts served over HTTP,
# the perf diff naming a dominant phase between two architectures, and the
# artifact store surviving a daemon restart.
telemetry-smoke:
	$(GO) test -race -count 1 -run 'TestTelemetrySmoke' -v ./cmd/aggsimd

# tenant-smoke is the multi-tenant end-to-end gate, run under the race
# detector: boot the daemon with a tenants file, reject unauthenticated and
# wrong-key requests (401) and over-ceiling priorities (403), prove quota
# isolation between a quota-bounded noisy tenant and a quiet one via the
# soak harness, check every per-tenant /metrics.prom family sums exactly to
# its global counterpart under the strict Prometheus parser, and restart the
# daemon against the persisted usage ledger.
tenant-smoke:
	$(GO) test -race -count 1 -run 'TestTenantSmoke|TestTenantFlagHygiene' -v ./cmd/aggsimd

# cluster-smoke is the multi-node gate, run under the race detector: a
# 3-node in-process cluster (gossip membership, consistent-hash ownership,
# replication, work stealing) byte-compared against a single-node reference,
# with the exactly-once proof (cluster-wide engine-run counters equal the
# distinct key count) held through a node kill and restart, and steal
# counters balancing at quiescence.
cluster-smoke:
	$(GO) test -race -count 1 -run 'TestCluster' -v ./internal/cluster/harness

# bench-json snapshots simulator wall-clock throughput into a dated JSON
# file; committing snapshots over time tracks the perf trajectory.
bench-json:
	$(GO) run ./cmd/benchjson > BENCH_$$(date +%Y%m%d).json
	@echo "wrote BENCH_$$(date +%Y%m%d).json"

# bench-diff renders the committed BENCH trajectory over the two newest
# snapshots. Advisory about perf by design (host throughput is machine-
# dependent) — only a missing or malformed snapshot fails the target.
bench-diff:
	@set -- $$(ls BENCH_*.json | sort | tail -2); \
	if [ $$# -lt 2 ]; then echo "bench-diff: need two committed BENCH_*.json snapshots"; exit 1; fi; \
	echo "bench-diff: $$1 -> $$2"; \
	$(GO) run ./cmd/pimdsm diff -bench $$1 $$2
