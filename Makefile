# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Link-time version stamp, surfaced by every command's -version flag,
# RUN.json, /v1/stats and the /metrics build-info series.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X subcache/internal/telemetry.Version=$(VERSION)"

.PHONY: all build test test-race vet test-faults test-telemetry test-stackdist test-service test-durability bench bench-kernel bench-sweep bench-check experiments traces cover fmt clean

all: build test

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# Full test suite under the race detector; CI runs this on every push.
test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Deterministic fault-injection campaign plus the checkpoint, panic
# isolation, corrupt-trace and durable-record suites, under the race
# detector.
test-faults:
	$(GO) test -race -run 'Fault|Panic|Campaign|ContinueOnError|Journal|Checkpoint|Corrupt|Truncated|Latched|Cancel|StackDist|Seal|ReadLines|AppendLog|WriteFileAtomic' ./internal/faultinject/... ./internal/sweep/... ./internal/trace/... ./internal/durable/... .

# Telemetry contracts under the race detector: schema round-trips,
# counter exactness, bit-identical results with a recorder attached,
# and error-attribution mirroring in the fault campaign (see
# docs/OBSERVABILITY.md).
test-telemetry:
	$(GO) test -race -run 'Telemetry|Event|Stream|Sink|Manifest|Fingerprint|Snapshot|Run(Emit|Close|Concurrent)|Nop|Mirrored|Histogram|Quantile|Prom|Span|Metrics' ./internal/telemetry/... ./internal/sweep/... ./internal/faultinject/... ./internal/service/...

# Sweep service contracts under the race detector: admission control,
# singleflight dedup, tenant quotas, graceful drain with bit-identical
# checkpoint resume, clean terminal run-end events, and the goroutine
# leak regressions (see docs/SERVICE.md).
test-service:
	$(GO) test -race -run 'Service|Submit|Admission|Quota|Dedup|Drain|Fingerprint|RunEnd|Leak|RunClose' ./internal/service/... ./internal/telemetry/...

# Durability contracts under the race detector: the sealed-record,
# append-log and atomic-write protocols (internal/durable), job-journal
# replay and torn-tail recovery, loading of version-1 files,
# verified-cache quarantine, TTL and LRU eviction, per-job timeouts,
# transient retry, bounded retention of finished jobs and cached
# results, the fuzz seed corpora of the durable boundaries, and the
# SIGKILL kill-restart campaign (fixed seed 1; override with
# FAULTINJECT_SEED=N to explore other kill timings).  See
# docs/SERVICE.md "Durability and recovery".
test-durability:
	$(GO) test -race -run 'Journal|CrashRecovery|DrainThenRestart|CacheCorruption|CacheTTL|CacheSizeCap|Retention|JobTimeout|TransientRetry|ReadyzDraining|Transient|ServiceKillRestartCampaign|Seal|ReadLines|AppendLog|WriteFileAtomic|FormatCompat|StoreEntry' ./internal/durable/... ./internal/service/... ./internal/sweep/... ./internal/faultinject/...

# Stack-distance engine gate under the race detector: differential
# equivalence, inclusion/conservation property tests, partition
# invariance, and the sweep-level three-engine identity checks.
test-stackdist:
	$(GO) test -race -run 'StackDist|Diff|Property|Partition|Supported|Engine' ./internal/stackdist/... ./internal/sweep/...

# One reduced-size benchmark per paper table/figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot access-kernel microbenchmarks (hit, miss, load-forward fill) with
# allocation counts; all three must report 0 allocs/op.
bench-kernel:
	$(GO) test -run='^$$' -bench='BenchmarkAccessHit|BenchmarkAccessMiss|BenchmarkFillLoadForward' -benchmem ./internal/cache

# Time the three sweep engines on the Table 7 grid and refresh BENCH_sweep.json.
bench-sweep:
	$(GO) run ./cmd/benchsweep

# Gate the engine kernels against BENCH_baseline.json, failing on a >25%
# ns/op regression after rescaling by a core-frequency calibration (so a
# throttled CI machine does not fail spuriously).  Override the band with
# `make bench-check TOLERANCE=0.40`; after an intentional kernel change,
# refresh the baseline with `go run ./cmd/benchcheck -update`.
bench-check:
	$(GO) run ./cmd/benchcheck $(if $(TOLERANCE),-tolerance $(TOLERANCE))

# Regenerate every table and figure at the paper's 1M-reference scale.
experiments:
	$(GO) run ./cmd/experiments -refs 1000000 -out results

# Write the 25-workload synthetic trace suite to traces/.
traces:
	$(GO) run ./cmd/tracegen -all -n 1000000 -out traces

cover:
	$(GO) test -cover ./...

fmt:
	gofmt -w .

clean:
	rm -rf results traces
