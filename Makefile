GO ?= go

.PHONY: build test vet fmt race check bench fuzz snapshot e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags e2e ./e2e

# fmt fails when any Go file is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# race exercises the concurrency-bearing packages — the parallel Fit
# collection pass, the ScoreBatch worker pool, Monitor.CheckBatch, the
# telemetry registry they all observe into, the serving micro-batcher,
# the fleet gateway (router, probers, rollout), the hunt scheduler
# fanning candidates across the scoring pool (its worker-count
# determinism test included), and the experiment harness that drives
# them — under the race detector.
race:
	$(GO) test -race -timeout 45m ./internal/core ./internal/experiment ./internal/telemetry ./internal/serve ./internal/gateway ./internal/hunt .

# e2e runs the end-to-end harness in e2e/ (behind the e2e build tag,
# so ./... skips it). It builds every binary once — dvserve and
# dvgateway with -race — trains one model, fits two validators, and
# drives each scenario against real processes: telemetry scrape,
# serving (check/batch, reload, 429 shedding, SIGTERM drain), chaos
# (crash-safe saves, corrupt reloads, degraded /readyz, healing),
# tracing/flight/drift, hunt (corpus layout, byte-identical corpora
# across GOMAXPROCS 1/4 and -workers 1/4, strict replay, dvreport),
# obs (wide events, rotation, SLO breach), gateway (kill -9 drain,
# rollout rollback and convergence) and fleet obs (stitched and
# partial trees, gateway SLO breach). Its alloc subtest is the scoring
# hot path's allocation gate: BenchmarkScoreBatch/workers=1 bytes/op
# at one P within 2x of the committed BENCH_pipeline.json baseline.
e2e:
	$(GO) test -tags e2e -count=1 -timeout 30m ./e2e

# check is the CI gate: full build + tests, vet, gofmt, the race pass
# and the end-to-end harness.
check: build test vet fmt race e2e

bench:
	$(GO) test -bench 'BenchmarkFit|BenchmarkScoreBatch' -benchmem -run '^$$' .

fuzz:
	$(GO) test -fuzz FuzzImageValidate -fuzztime 30s -run '^$$' .
	$(GO) test -fuzz FuzzCheckRequest -fuzztime 30s -run '^$$' ./internal/serve
	$(GO) test -fuzz FuzzTraceID -fuzztime 30s -run '^$$' ./internal/trace
	$(GO) test -fuzz FuzzReadPNM -fuzztime 30s -run '^$$' ./internal/dataset
	$(GO) test -fuzz FuzzLoadPNM -fuzztime 30s -run '^$$' ./internal/dataset
	$(GO) test -fuzz FuzzTransformCompose -fuzztime 30s -run '^$$' ./internal/imgtrans
	$(GO) test -fuzz FuzzDecisionBatchEquivalence -fuzztime 30s -run '^$$' ./internal/svm
	$(GO) test -fuzz FuzzAxpyKernelEquivalence -fuzztime 30s -run '^$$' ./internal/tensor

# snapshot refreshes BENCH_pipeline.json, the committed perf trajectory
# for the parallel scoring & fitting pipeline plus the serving
# micro-batcher and the gateway observability plane (the later passes
# merge into the file, so order matters).
snapshot:
	DV_BENCH_SNAPSHOT=1 $(GO) test -run TestBenchPipelineSnapshot -count=1 -v .
	DV_BENCH_SNAPSHOT=1 $(GO) test -run 'TestBenchServeSnapshot$$' -count=1 -v ./internal/serve
	DV_BENCH_SNAPSHOT=1 $(GO) test -run TestBenchServeWorkersSnapshot -count=1 -v ./internal/serve
	DV_BENCH_SNAPSHOT=1 $(GO) test -run TestBenchTraceSnapshot -count=1 -v ./internal/serve
	DV_BENCH_SNAPSHOT=1 $(GO) test -run TestBenchGatewayObsSnapshot -count=1 -v ./internal/gateway
