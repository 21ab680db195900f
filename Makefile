# Verification tiers.
#
#   make test          — tier 1: build everything, run the full unit suite
#   make race          — tier 2: vet + the full suite under the race detector
#   make bench         — tracked micro-benchmarks at fixed iteration counts,
#                        written as a comparable JSON baseline
#   make bench-compare — rerun the tracked benches and fail on a >20%
#                        regression against benchmarks/baseline.json
#   make smoke         — boot invarnetd on an ephemeral port, run the load
#                        generator against the live socket, assert /healthz
#                        and /v1/stats sanity, drain and persist cleanly
#   make fleet-smoke   — boot a 3-peer federation on loopback, label a
#                        distinct fault on each peer, assert gossip
#                        convergence, cross-peer diagnosis from the replica,
#                        and ownership rebalance after killing one peer
#   make check         — all tiers: test, race, smokes, bench comparison
#
# The race tier exists because the core is concurrent by design (striped
# profile registry, supervised monitor goroutines, parallel association
# workers, concurrent SaveTo): a data race there is a correctness bug, not
# a performance detail.
#
# The bench tier pins -benchtime to a fixed iteration count so ns/op and
# allocs/op are averaged over the same work on every run; benchjson strips
# the -GOMAXPROCS suffix and sorts by name, so baselines diff cleanly
# across commits (benchmarks/baseline.json). bench-compare writes the fresh
# run to benchmarks/current.json (not committed) and gates on `benchjson
# -compare`, with separate thresholds for time (noisy) and allocs/op
# (near-deterministic — a tight gate here catches an accidental per-sample
# allocation on the ingest hot path that a 20% time budget would hide).

GO ?= go
# 2000 fixed iterations keeps scheduler noise on the parallel benches well
# inside the 20% comparison threshold; 200x was too jittery to gate on.
BENCH_ITERS ?= 2000x
BENCH_PATTERN = BenchmarkMIC$$|BenchmarkComputeMatrix|BenchmarkARXAssociation|BenchmarkConcurrentDiagnose|BenchmarkDiagnoseSparse|BenchmarkSignatureMatch|BenchmarkSignatureRank$$
# The serving bench goes through a real TCP socket (json and binary ingest
# sub-benchmarks with periodic wait=true diagnoses), so it runs at its own
# fixed iteration count.
SERVER_BENCH_ITERS ?= 1000x
SERVER_BENCH_PATTERN = BenchmarkServerIngestDiagnose
# Every benchmark runs -count times and benchjson keeps the fastest run
# per name: scheduler noise only ever adds time, so best-of-3 holds the
# 20% gate on machines where any single run can swing 30%+.
BENCH_COUNT ?= 3
# Regression gates for bench-compare: wall time within 20%, allocation
# counts within 10%.
BENCH_TIME_THRESHOLD ?= 0.2
BENCH_ALLOC_THRESHOLD ?= 0.1
# Benchmarks the compare gate must cover in both baseline and fresh run:
# the gate only inspects names present in the baseline, so without this a
# dropped or renamed benchmark would silently lose its regression gate.
# The fleet-scale signature retrievals are pinned because they are the
# figures the sub-linear index exists for; the triage-shape ranking because
# it is the retrieval every warm diagnosis pays.
BENCH_REQUIRE = BenchmarkSignatureMatch/n=10000,BenchmarkSignatureMatch/n=100000,BenchmarkSignatureRank/n=5000

.PHONY: build test vet race check bench bench-compare smoke fleet-smoke fuzz

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race: vet
	$(GO) test -race ./...

check: test race smoke fleet-smoke bench-compare

smoke: build
	$(GO) run ./cmd/invarnetd -smoke -smoke-seconds 3

fleet-smoke: build
	$(GO) run ./cmd/invarnetd -fleet-smoke

# Short coverage-guided runs of the binary wire-decoder fuzzer and the
# root-cause ranking equivalence fuzzer; the seed corpora alone (run by
# `make test`) only replay known shapes.
fuzz: build
	$(GO) test ./internal/server/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/signature/ -run '^$$' -fuzz FuzzRankEquivalence -fuzztime 10s

bench: build
	@mkdir -p benchmarks
	( $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' \
		-benchmem -benchtime $(BENCH_ITERS) -count $(BENCH_COUNT) . && \
	  $(GO) test -run '^$$' -bench '$(SERVER_BENCH_PATTERN)' \
		-benchmem -benchtime $(SERVER_BENCH_ITERS) -count $(BENCH_COUNT) . ) | $(GO) run ./cmd/benchjson > benchmarks/baseline.json
	@cat benchmarks/baseline.json

bench-compare: build
	@mkdir -p benchmarks
	( $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' \
		-benchmem -benchtime $(BENCH_ITERS) -count $(BENCH_COUNT) . && \
	  $(GO) test -run '^$$' -bench '$(SERVER_BENCH_PATTERN)' \
		-benchmem -benchtime $(SERVER_BENCH_ITERS) -count $(BENCH_COUNT) . ) | $(GO) run ./cmd/benchjson > benchmarks/current.json
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_TIME_THRESHOLD) \
		-alloc-threshold $(BENCH_ALLOC_THRESHOLD) -require '$(BENCH_REQUIRE)' \
		benchmarks/baseline.json benchmarks/current.json
