GO ?= go
BENCHOUT ?= bench-records
STAMP ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ)

.PHONY: build test race vet fmt verify bench bench-go bench-compare bench-check alloc fuzz-smoke obs-overhead propagation-smoke serve-smoke alert-smoke rca-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fmt fails (listing the offenders) if any tracked Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# verify is the pre-merge gate: static checks, a clean build, the full
# suite under the race detector (the data-parallel trainer and the batched
# inference paths are only trustworthy race-clean), the allocation-
# regression tests (which the race detector's instrumentation skips, so
# they need a non-race pass), and a smoke run of the observability-overhead
# benchmark — the disabled-path numbers back the "off by default costs
# nothing" claim — plus the distributed-tracing propagation smoke test
# (collector + model server in-process, one scored request, one joined
# trace through the dogfood loop) and the serve-latency smoke test (the
# default /score server must beat the legacy per-request path at p99
# under concurrent load), and the watchdog alert smoke (a synthetic p99
# regression must fire the stock burn-rate rule, link a resolvable
# exemplar trace and resolve after recovery), the rca-smoke gate (the
# default-on candidate pruning must predict root-cause sets identical to
# the unpruned loop on the fixed seed suite), the fuzz-smoke run of
# every native fuzz target (the OTLP scanner must agree with its
# encoding/json oracle on every mutated input), and bench-check (the
# end-to-end benchmark, a separate Go module, must still compile and pass
# its tests against the current packages).
verify: fmt vet build race alloc fuzz-smoke obs-overhead propagation-smoke serve-smoke alert-smoke rca-smoke bench-check

# alloc runs the allocation-regression guards without the race detector:
# the steady-state training step must allocate (essentially) nothing, the
# per-trace single-pass score cost (scoreOn: predictions and loss from one
# forward) must stay at most 32 allocations, the clustering
# engine's steady-state kernels (Eq. 1 merge, bounded-heap row selection,
# packed-matrix access) must not allocate per call, the ingest tail
# sampler's per-trace verdict must allocate nothing, the /score handler's
# scoring call on a warm cached model must cost only the score kernel's
# per-trace constants, the watchdog tick — disabled AND enabled steady state —
# must allocate nothing, and a warm localisation query must stay inside
# its per-query budget (a lost session cache re-encodes per counterfactual
# and blows through it), and a warm OTLP decode must stay under 6
# allocations per span (the reflection decoder it replaced made ~14).
# These tests auto-skip under -race, so `make race` alone would never
# exercise them.
alloc:
	$(GO) test -run 'SteadyStateAllocs' -count=1 ./internal/tensor ./internal/core ./internal/obs ./internal/obs/alert ./internal/cluster ./internal/ingest ./internal/modelserver ./internal/rca ./internal/otel

# fuzz-smoke runs each native fuzz target for five seconds: the
# differential OTLP target (scanner vs the encoding/json oracle, same
# verdict and DeepEqual spans) and the Zipkin/Jaeger round-trip targets.
# The committed seed corpora also run as plain tests under `make test`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeOTLP$$' -fuzztime=5s ./internal/otel
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeZipkin$$' -fuzztime=5s ./internal/otel
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeJaeger$$' -fuzztime=5s ./internal/otel

# bench runs the paper's evaluation harness and leaves a machine-readable
# BENCH_<name>.json per experiment in $(BENCHOUT), stamped with $(STAMP) so
# records accumulate comparably across commits.
bench:
	mkdir -p $(BENCHOUT)
	$(GO) run ./cmd/benchrunner -exp all -benchout $(BENCHOUT) -stamp $(STAMP)

# bench-go runs the in-tree Go micro/macro benchmarks (training scaling,
# inference batching, obs overhead).
bench-go:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-compare re-measures the hot paths (training step, pairwise distance
# matrix, batched ScoreBatch scoring, HDBSCAN clustering pipeline, streaming
# ingest, closed-loop serving, localisation) and prints ns/op, B/op and
# allocs/op deltas against the committed baselines in $(BENCHOUT) — the
# regression gate for the zero-allocation training work, the scale-out
# clustering engine, the single-pass serving path and the counterfactual
# session. Records carry the machine fingerprint they were taken on; a
# delta is printed only against a baseline from the same CPU, GOMAXPROCS
# and Go version, and any other baseline (or one without a fingerprint)
# prints "baseline from a different machine (…): no delta".
bench-compare:
	$(GO) run ./cmd/benchrunner -exp hot -baseline $(BENCHOUT)

# bench-check compiles, vets and tests the end-to-end benchmark module
# (e2ebench/, a separate Go module that `go build ./...` never reaches), so
# a change that removes a package API the benchmark calls fails here
# instead of at benchmark time. It needs no network and writes nothing
# under e2ebench/.
bench-check:
	$(GO) -C e2ebench vet ./...
	$(GO) -C e2ebench test ./...

obs-overhead:
	$(GO) test -bench='BenchmarkObsOverhead|BenchmarkSeriesAppend|BenchmarkTracePropagation' -benchtime=10000x -run=^$$ ./internal/obs

# propagation-smoke drives one scored request through in-process collector +
# model server and asserts a single joined distributed self-trace with spans
# from every component, ingested and re-scored by the pipeline itself.
propagation-smoke:
	$(GO) test -run 'TestPropagationSmoke' -count=1 .

# serve-smoke is the online-serving latency gate: 8 concurrent clients
# against the default /score server must see a better p99 than against
# the legacy per-request path (disk model load + double forward).
serve-smoke:
	$(GO) test -run 'TestServeLatencySmoke' -count=1 ./internal/modelserver

# alert-smoke is the self-watchdog end-to-end gate: a synthetic score-p99
# regression fires the stock modelserver burn-rate rule within two ticks,
# the firing alert carries the worst exemplar trace ID (resolvable via the
# same /debug/traces endpoint `sleuthctl trace` uses), the ALERTS series
# shows up on /metrics, and the alert resolves once the regression clears.
alert-smoke:
	$(GO) test -run 'TestAlertSmoke' -count=1 ./internal/obs/alert

# rca-smoke is the localisation-equivalence gate: with candidate pruning
# on (the default), predicted root-cause sets must be identical to the
# unpruned counterfactual loop's, query by query, on the fixed seed suite.
# That holds for this suite only: at Synthetic-1024 pruning changes some
# verdicts (EXPERIMENTS.md, "Pruning at Synthetic-1024").
rca-smoke:
	$(GO) test -run 'TestRCASmokeEquivalence' -count=1 ./internal/rca
