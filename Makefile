GO ?= go

# CHAOS_SEEDS widens the randomized chaos sweeps (see internal/chaos and
# the nightly CI job); unset, the tests run their small default sweeps.
CHAOS_SEEDS ?=

# FUZZTIME is how long each native fuzz target runs under `make fuzz`.
FUZZTIME ?= 30s

# BENCH_PATTERN selects the microbenchmarks bench, bench-smoke and
# bench-micro run (the rows of BENCH_micro.json).
BENCH_PATTERN ?= BenchmarkSCPRound|BenchmarkBaseline|BenchmarkVerifyTxSet|BenchmarkBucketRehash|BenchmarkTriggerBuild|BenchmarkDirtySnapshot|BenchmarkVerifierSteadyState|BenchmarkEnvelopeFloodReceive

# TRACE_OUT is where trace-smoke writes its Chrome trace artifact.
TRACE_OUT ?= trace-smoke.json

# STATICCHECK is the staticcheck binary `make check` uses when present.
STATICCHECK ?= staticcheck

.PHONY: all build test race vet fmt staticcheck check bench bench-smoke bench-test bench-e2e pairs mem bench-micro trace-smoke smoke fuzz chaos soak

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet also compiles the smoke tests, which carry a build tag.
vet:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./internal/cluster/

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck runs honnef.co/go/tools when the binary is available and
# degrades to a notice when it is not: contributors without the tool still
# get the rest of the gate, while CI pins and installs it so the check
# always runs there. Like vet, it also reads the smoke tests.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./... && \
		$(STATICCHECK) -tags smoke ./internal/cluster/; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# check is the full local gate: formatting, static analysis, the race
# detector over the whole tree, and the nested bench module's own tests.
# CI's push gate runs exactly this.
check: fmt vet staticcheck race bench-test

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -count 3 .

# bench-smoke runs each benchmark once — a fast regression tripwire for CI,
# not a measurement — plus the nil-tracer overhead budget (tracing off
# must cost <1% of a consensus round).
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x .
	TRACE_OVERHEAD=1 $(GO) test -run '^TestNilTracerOverhead$$' -v .

# bench-test vets and tests the end-to-end benchmark's own code. bench/ is
# a nested module (so it can import stellar/internal/...), which `go test
# ./...` and `make race` at the root therefore skip. Under a second, no
# cluster, no timing.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-e2e is the benchmark itself (BENCHMARK.json's command): all four
# workloads on a real-TCP quorum, traced, report in bench/out/. Minutes,
# and its numbers mean something only on a quiet machine — not a CI gate.
bench-e2e:
	bash bench/run.sh

# pairs is the paired-run protocol behind a performance claim: PAIRS_N
# alternating parent/change pairs of bench-e2e's PAIRS_WORKLOAD on
# consecutive seeds from PAIRS_SEED, each PAIRS_SECONDS long, printing the
# metrics named in PAIRS_METRICS — end-to-end or per-layer, as the
# benchmark prints them — per pair and as median [quartiles]. The parent is PAIRS_PARENT (a `git
# archive` copy under .bench_build/), the change this checkout.
# PAIRS_TRACE=auto runs --trace 1 when a per-layer name is asked for
# (scripts/pairs.sh says when 0 is enough). About two minutes a pair; quiet
# machine only.
#   make pairs PAIRS_METRICS="close_ms_p50 applied_tx_s herder.nomination_ms_mean"
PAIRS_PARENT ?= HEAD~1
PAIRS_N ?= 10
PAIRS_SEED ?= 601
PAIRS_WORKLOAD ?= pay_saturate
PAIRS_METRICS ?= close_ms_p50 applied_tx_s
PAIRS_TRACE ?= auto
PAIRS_SECONDS ?= 16
pairs:
	PARENT=$(PAIRS_PARENT) PAIRS=$(PAIRS_N) SEED=$(PAIRS_SEED) WORKLOAD=$(PAIRS_WORKLOAD) TRACE=$(PAIRS_TRACE) SECONDS_=$(PAIRS_SECONDS) ./scripts/pairs.sh $(PAIRS_METRICS)

# mem is pairs with the two memory figures preset: node_peak_rss_mb (the
# bounded end-to-end metric) and runtime.heap_mb_end (where a saving should
# show; scraped, so the runs stay untraced). PAIRS_SECONDS sets the window:
# the 60 s slope is `make mem PAIRS_SECONDS=60 MEM_PAIRS=2`.
MEM_PARENT ?= HEAD~1
MEM_PAIRS ?= 10
MEM_SEED ?= 601
MEM_WORKLOAD ?= pay_saturate
mem:
	$(MAKE) pairs PAIRS_PARENT=$(MEM_PARENT) PAIRS_N=$(MEM_PAIRS) PAIRS_SEED=$(MEM_SEED) PAIRS_WORKLOAD=$(MEM_WORKLOAD) \
		PAIRS_SECONDS=$(PAIRS_SECONDS) PAIRS_METRICS="node_peak_rss_mb runtime.heap_mb_end" PAIRS_TRACE=0

# trace-smoke runs a short traced simulation and validates the exported
# Chrome trace (schema + full parent-linked tx lifecycle); the per-phase
# close times are the simulator's own summary lines. CI uploads
# $(TRACE_OUT) as an artifact.
trace-smoke:
	$(GO) run ./cmd/stellar-sim -validators 4 -accounts 500 -rate 20 -duration 40s \
		-archive $$(mktemp -d) -trace $(TRACE_OUT)
	$(GO) run ./cmd/stellar-obs tracecheck -lifecycle $(TRACE_OUT)

# fuzz runs each native fuzz target for FUZZTIME. Go permits only one
# -fuzz pattern per invocation, hence one run per target.
fuzz:
	$(GO) test ./internal/xdr/ -run '^$$' -fuzz '^FuzzTxDecodeRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xdr/ -run '^$$' -fuzz '^FuzzQuorumSetDecodeRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ledger/ -run '^$$' -fuzz '^FuzzCheckSignatures$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ledger/ -run '^$$' -fuzz '^FuzzTxSetRefResolve$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bucket/disk/ -run '^$$' -fuzz '^FuzzBucketFile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mempool/ -run '^$$' -fuzz '^FuzzPoolOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mempool/ -run '^$$' -fuzz '^FuzzAuthEpoch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stellarcrypto/ -run '^$$' -fuzz '^FuzzStrkeyDecode$$' -fuzztime $(FUZZTIME)

# bench-micro regenerates BENCH_micro.json from one pass of the
# microbenchmarks.
bench-micro:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1x . \
		| $(GO) run ./cmd/stellar-obs benchjson BENCH_micro.json

# smoke boots real stellar-node quorums over loopback TCP through one
# harness (internal/cluster) and runs one Go test per end-to-end contract:
# identical headers across processes, cold-start catch-up over the wire,
# ingress backpressure without lost transactions, alerts that fire on a
# SIGSTOP wedge and resolve after SIGCONT, and a traced load whose merged
# cross-process trace is lossless and linked. About a minute; a failing
# test prints the tail of every node's log.
smoke:
	$(GO) test -tags smoke -count 1 -timeout 15m -v ./internal/cluster/

# chaos runs the fault-injection acceptance scenarios (partition +
# Byzantine equivocators + heal across 20 seeds, plus the soak sweep).
chaos:
	$(GO) test ./internal/chaos/ ./internal/experiments/ -run 'Chaos|PartitionHeal|RandomScenario' -v

# soak is the nightly-sized run: every chaos sweep widened by CHAOS_SEEDS
# and repeated, plus the long experiments soaks.
soak:
	CHAOS_SEEDS=$(or $(CHAOS_SEEDS),40) $(GO) test ./internal/chaos/ ./internal/experiments/ -count 2 -timeout 45m
