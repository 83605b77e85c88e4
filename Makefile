GO ?= go

.PHONY: all build vet lint test race chaos fuzz cover bench bench-json bench-compare profile-cluster alloc-check serve-smoke scale-smoke loadgen-smoke clean

all: vet lint test

build:
	$(GO) build ./...

# vet also fails on any tracked Go file gofmt would rewrite; testdata
# holds deliberately malformed analyzer fixtures and is left out.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/)); \
		test -z "$$unformatted" || { echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; }

# lint runs the project's own analyzer suite (internal/lint via
# cmd/ecolint): determinism, context flow, hot-path I/O, lock scope,
# metric naming, the simclock event-pool contract, atomic striping
# shape, lane isolation, goroutine joins, the zero-alloc hot-path
# proof, and map/select determinism. Whole-module mode is the
# authoritative gate — it also fails on stale suppressions (directives
# that no longer absorb a finding; `ecolint -prune .` lists them) and
# prints the suppression-debt ledger. The same binary speaks the vet
# protocol (go vet -vettool=bin/ecolint ./...).
lint: build
	$(GO) build -o bin/ecolint ./cmd/ecolint
	./bin/ecolint -debt .

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection suite under the race detector; the CI
# chaos job repeats it for three fixed seeds (CHAOS_SEED drives the
# random-schedule property test).
CHAOS_SEED ?= 1
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -run 'Chaos|Fault|Fuzz|PolicyInvariants|NeverStarves' ./...

# fuzz gives each fuzzer a short budget beyond the committed corpus
# (which plain `go test` always replays).
fuzz:
	$(GO) test -fuzz FuzzTornTail -fuzztime 30s -run FuzzTornTail ./internal/filedb/
	$(GO) test -fuzz FuzzReplay -fuzztime 30s -run FuzzReplay ./internal/filedb/
	$(GO) test -fuzz FuzzPolicySpec -fuzztime 30s -run FuzzPolicySpec ./internal/workload/

# cover enforces a per-package statement-coverage floor on the policy
# and workload packages (the cluster-policy test harness keeps them
# high; the floor stops silent erosion). FAIL lines from any package
# still fail the target even though awk consumes the pipe status.
COVER_FLOOR ?= 80
cover:
	$(GO) test -cover ./... | awk -v floor=$(COVER_FLOOR) ' \
		{ print } \
		/^FAIL/ { bad = 1 } \
		$$1 == "ok" && ($$2 == "ecosched/internal/slurm" || $$2 == "ecosched/internal/workload") { \
			pct = $$5; sub(/%/, "", pct); seen++; \
			if (pct + 0 < floor) { printf "cover: %s at %s%% is under the %d%% floor\n", $$2, pct, floor; bad = 1 } \
		} \
		END { if (seen < 2) { print "cover: gated packages missing from output"; exit 1 }; exit bad }'

bench:
	$(GO) test -run XXX -bench . -benchmem ./...

# bench-json runs every benchmark once and records the results as
# machine-readable JSON (BENCH_<date>.json), committed alongside the
# code so perf regressions show up in review diffs.
bench-json:
	$(GO) test -run XXX -bench . -benchtime=1x -benchmem ./... | $(GO) run ./cmd/benchjson > BENCH_$$(date +%F).json

# scale-smoke exercises the cluster-scale surface: the committed
# 1,024-node 100k-submission spec through the ecosim CLI, the
# power-capped policy spec with its fitness row, then the
# replay-fidelity suites under the race detector on the reduced specs
# (the 1M acceptance regression is build-gated out of -race runs and
# covered by plain `make test`).
scale-smoke: build
	$(GO) run ./cmd/ecosim -spec specs/scale-smoke.json
	$(GO) run ./cmd/ecosim -spec specs/powercap-smoke.json -bench
	$(GO) test -race -run 'ClusterReplayFidelity|ClusterPolicyReplayFidelity|DifferentSeedDiverges|CommittedSpecsParse' -v .

# bench-compare is the perf regression gate: it re-runs the simulator
# core benchmarks, converts them with benchjson, and diffs the result
# against the most recent committed BENCH_<date>.json. The ns/op
# threshold is deliberately loose (shared CI runners are noisy); the
# allocs/op threshold is tight because allocation counts are exact.
bench-compare: build
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run XXX -bench 'ClusterThroughput|SimSchedule$$|SubmitSteadyState' -benchmem . ./internal/simclock ./internal/slurm | ./bin/benchjson > bin/bench-head.json
	./bin/benchjson -compare -max-slowdown 0.5 -max-alloc-increase 0.05 $$(ls BENCH_*.json | tail -n1) bin/bench-head.json

# profile-cluster captures CPU and heap profiles of the cluster-scale
# throughput benchmark into bin/, then prints the CPU top — the
# starting point for any simulator-core perf work (inspect further
# with `go tool pprof bin/ecosched.test bin/cluster-{cpu,mem}.out`).
profile-cluster:
	$(GO) test -run XXX -bench ClusterThroughput -benchtime=10x -benchmem \
		-o bin/ecosched.test -cpuprofile bin/cluster-cpu.out -memprofile bin/cluster-mem.out .
	$(GO) tool pprof -top -nodecount=20 bin/ecosched.test bin/cluster-cpu.out

# alloc-check guards the zero-allocation guarantees of the simulator
# hot paths: the telemetry emit path (sharded counter, gauge,
# bucketed histogram), the simclock schedule+pop cycle on the Action
# fast path, the slurm submit→complete cycle (pooled jobs, chunked
# arena, aggregate accounting), and a policy scheduling pass over a
# deep held queue. Every row must report 0 allocs/op, or a heap
# allocation has crept into a per-event path.
alloc-check:
	$(GO) test -run XXX -bench 'ShardedCounterInc|BucketedHistogramObserve|GaugeSet|SimSchedule$$|SubmitSteadyState|SchedulePassHeldQueue' -benchtime=1000x -benchmem ./internal/metrics ./internal/simclock ./internal/slurm | \
	awk '{ print } /allocs\/op$$/ { seen++; if ($$(NF-1) != "0") { bad = 1; print "alloc-check: " $$1 " allocates on the hot path" } } END { if (seen < 6) { print "alloc-check: expected 6 benchmarks, saw " seen+0; exit 1 }; exit bad }'

# serve-smoke boots `chronus serve` against a fresh data directory and
# fails unless /metrics and /healthz answer 200 with the expected
# content types.
serve-smoke:
	./scripts/serve-smoke.sh

# loadgen-smoke drives the sustained-load harness in both modes,
# appends the bench rows into a benchjson report and fails if the
# submit-latency SLO is violated. LOADGEN_REPORT overrides where the
# rows land (CI points it at the day's BENCH_<date>.json).
loadgen-smoke:
	./scripts/loadgen-smoke.sh

clean:
	$(GO) clean -testcache
