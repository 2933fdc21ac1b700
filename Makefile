# Convenience targets; everything is plain `go` underneath.

GO ?= go
# Extra flags for the benchmark targets, e.g. BENCHFLAGS=-benchtime=1x
# for a quick smoke run.
BENCHFLAGS ?=

.PHONY: all help build test race check chaos cluster-soak crash-smoke bench bench-check bench-oracles bench-json bench-smoke bench-compare bench-compare-wal bench-compare-routing bench-compare-partition bench-compare-replace bench-stochastic docs-check fuzz fuzz-smoke experiments paper-runs soak-smoke results serve clean

all: build test

help:
	@echo "Targets:"
	@echo "  build        gofmt check, then compile and vet every package"
	@echo "  test         go test ./..."
	@echo "  race         go test -race ./..."
	@echo "  check        vet + full race-detector test run"
	@echo "  chaos        chaos soak: placemond behind the fault injector, race detector on"
	@echo "  cluster-soak 3-node cluster soak: chaos timeline through a non-owner plus a live mid-soak migration (CI)"
	@echo "  crash-smoke  WAL crash-injection matrix: kill writes mid-append/rotate/compact, assert exact recovery (CI)"
	@echo "  bench        one benchmark run per table/figure plus ablations"
	@echo "  bench-check  vet + short tests of the placebench module (CI)"
	@echo "  bench-oracles  placebench's TestSmoke: every workload for a second with every oracle on (CI)"
	@echo "  bench-json   machine-readable benchmark snapshot (BENCH_<date>.json)"
	@echo "  bench-smoke  single-iteration benchmark compile-and-run gate (CI)"
	@echo "  bench-compare  registry-overhead run gated against the archived seed baseline (CI)"
	@echo "  bench-compare-wal  WAL append/recovery run gated against the archived WAL baseline (CI)"
	@echo "  bench-compare-routing  shortest-path-tree kernel gated against the archived routing baseline (CI)"
	@echo "  bench-compare-partition  placement evaluation kernel gated against the archived partition baseline (CI)"
	@echo "  bench-compare-replace  one PUT …/network on a ~5 000-node scenario gated against the archived replace baseline (CI)"
	@echo "  bench-stochastic  stochastic-frontier smoke gated against the archived frontier snapshot (CI)"
	@echo "  docs-check   documentation lint: godoc coverage, markdown links, flag-name drift (CI)"
	@echo "  fuzz         short fuzz session over the edge-list parser"
	@echo "  fuzz-smoke   ~10s of every fuzz target (CI)"
	@echo "  experiments  regenerate every evaluation artifact into results/"
	@echo "  paper-runs   execute the experiments.json grid into paper_runs/<ts>/ and validate vs results/"
	@echo "  soak-smoke   ≤30s open-loop load against an in-process placemond, gated by slo.json (CI)"
	@echo "  results      archive test + benchmark logs"
	@echo "  serve        compute a placement and run placemond on :8080"
	@echo "  clean        remove archived logs"

# Fails first if gofmt would reformat any file.
build:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full static + concurrency gate: vet everything, then run every test
# under the race detector (the serving layer, worker pool, and metrics
# registry are exercised concurrently by their tests).
check:
	$(GO) vet ./...
	$(GO) test -race ./...

# Chaos soak: drive a real placemond through the seeded fault injector
# (drops, duplicates, resets, 5xx flaps, reorders) and require the event
# stream to match a fault-free run exactly. CHAOSFLAGS=-short for the
# one-cycle smoke variant CI uses.
CHAOSFLAGS ?=
chaos:
	$(GO) test -race -run TestChaosSoak -v $(CHAOSFLAGS) .

# Cluster soak: the same seeded chaos timeline driven at a 3-node
# WAL-backed cluster through a deliberately wrong node, with a live
# scenario migration fired mid-soak. The merged redirect-following event
# stream must match a single-node fault-free run exactly, the audit
# splice must pin the source's fence record, and every node's log must
# fsck clean. CHAOSFLAGS=-short for the one-cycle smoke variant CI uses.
cluster-soak:
	$(GO) test -race -run TestClusterSoak -v $(CHAOSFLAGS) .

# WAL crash-injection matrix: the fault-point filesystem kills writes at
# seeded byte offsets mid-append, mid-rotation, and mid-compaction (log
# layer) and mid-serving (HTTP layer); every recovered state must be
# byte-identical to a never-crashed reference, and a retried pre-crash
# batch must replay its original ack.
crash-smoke:
	$(GO) test -race -run 'TestCrashMatrix|TestCrashServerMatrix|TestTorn' -v ./internal/wal/ ./internal/server/

# One benchmark run per table/figure plus the ablations.
bench:
	$(GO) test -bench=. -benchmem .

# The end-to-end benchmark (placebench/) is its own Go module, so the
# root `go build ./...` and `go test ./...` never compile it; this vets
# and short-tests it against the facade in this checkout.
bench-check:
	cd placebench && $(GO) vet ./... && $(GO) test -short ./...

# The benchmark's oracles, which -short skips: TestSmoke runs every
# workload for one second and checks the diagnosis event protocol
# against Network.Localize, every placement against a cold
# Network.Place, and the audit chain, fsck and diagnosis across SIGKILL
# restarts of the daemons it starts.
bench-oracles:
	cd placebench && $(GO) test -count=1 -run TestSmoke ./...

# Single-iteration smoke over a cheap benchmark: proves the benchmark
# harness still compiles and runs without paying for a real measurement.
bench-smoke:
	$(GO) test -run NONE -bench='TableI|RegistryOverhead' -benchtime=1x .

# Multi-tenant serving overhead, gated twice from one measurement run:
# ns/op against the archived pre-refactor seed baseline (>10% fails) and
# allocs/op against the zero-alloc streaming snapshot (>10% fails), so
# neither latency nor the allocation work can silently backslide. ns/op
# is not gated against the streaming snapshot — wall-clock swings too
# much run-to-run on shared CPUs for a freshly-tightened bound — but
# allocs/op is deterministic, so there the tight gate holds. The bare
# snapshot names resolve via benchjson's archive fallback to
# results/bench/, where the BENCH_*.json snapshots live. Every benchjson
# gate runs at -cpu 1: the archives were recorded at GOMAXPROCS 1, and
# at more CPUs `go test` suffixes each benchmark name with -N, which
# would leave no name in common with the archive.
bench-compare:
	$(GO) test -run NONE -bench=RegistryOverhead -benchmem -benchtime=2000x -cpu 1 . > /tmp/bench_registry.txt
	$(GO) run ./cmd/benchjson -compare BENCH_2026-08-06_registry_seed.json -fail-over 10 < /tmp/bench_registry.txt
	$(GO) run ./cmd/benchjson -compare BENCH_2026-08-08_streaming.json -fail-allocs-over 10 < /tmp/bench_registry.txt

# Stochastic-frontier smoke: the small generated hierarchy (fixed seed)
# through exact greedy, every ε row, and the instance rebuild after an
# edge delta, one iteration each — proof the frontier harness still
# compiles and the sampled engine still terminates, then a ns/op gate
# against the archived frontier snapshot. The snapshot predates the
# removal of the warm-start engine, so its warm-place rows print as
# "only in baseline". The margin is wide (200%) because a
# single iteration on a shared runner is noisy; the deterministic
# counters (evaluations/op, value-ratio, eval-saving) are what the
# archived snapshot is really for. The 10k-node scale is excluded here:
# each of its instance constructions is a tens-of-seconds measurement,
# archived in BENCH_2026-08-08_stochastic.json by a full run, not
# re-paid per push.
bench-stochastic:
	$(GO) test -run NONE -bench='StochasticFrontier/small' -benchtime=1x -cpu 1 . > /tmp/bench_stochastic.txt
	$(GO) run ./cmd/benchjson -compare BENCH_2026-08-08_stochastic.json -fail-over 200 < /tmp/bench_stochastic.txt

# WAL hot paths (append fsync cost per sync mode, boot recovery) gated
# against the snapshot archived when group commit became
# leader/follower. fsync-bound ns/op swings ±2x run-to-run on shared
# disks at small iteration counts, so the gate averages over 1000
# iterations and allows a 100% margin: it catches order-of-magnitude
# regressions (a commit window returning to serial group appends, an
# accidental fsync per record in group mode, a quadratic recovery
# scan), not microsecond drift.
bench-compare-wal:
	$(GO) test -run NONE -bench='WALAppend|Recovery' -benchmem -benchtime=1000x -cpu 1 ./internal/wal/ | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-17_wal.json -fail-over 100

# The routing kernel: one shortest-path tree over a ~5 000-node
# hierarchy, unit weights (breadth-first path) and the same edges at
# weight 2 (binary-heap path), gated against the snapshot archived when
# hop-count trees moved to BFS. allocs/op is deterministic (4 on the BFS
# path, 19 on the heap), so its gate is tight; ns/op gets a 100% margin
# for shared runners, which still fails a unit-weight graph sent back to
# the heap (about 10x the archived time).
bench-compare-routing:
	$(GO) test -run NONE -bench=ShortestPathTree -benchmem -benchtime=2000x -cpu 1 ./internal/graph/ | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-17_routing.json -fail-over 100 -fail-allocs-over 10

# The placement evaluation kernel: one lazy distinguishability placement
# over a ~5 000-node hierarchy (8 services × 10 clients, α = 0.3, the
# instance built before the timer), gated against the snapshot archived
# when candidates began to be scored by trying them on the partition and
# rolling back instead of cloning it. evaluations/op (653) and allocs/op
# are deterministic, so the allocation gate is tight: a per-candidate
# clone coming back (10 470 allocs/op against 1 470) fails it. ns/op gets
# a 100% margin for shared runners.
bench-compare-partition:
	$(GO) test -run NONE -bench=PartitionPlacement -benchmem -benchtime=200x -cpu 1 ./internal/placement/ | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-18_partition.json -fail-over 100 -fail-allocs-over 10

# One network revision: ReplaceScenarioNetwork on a ~5 000-node
# hierarchy (8 services × 10 clients, α = 0.3), alternating between two
# one-link deltas between routers so every iteration re-routes the
# network, re-places the services with a cold lazy run and builds the
# tenant, gated against the snapshot archived when candidates began to
# be scored by trying them on the evaluator and rolling back instead of
# cloning it. allocs/op is deterministic to a few allocations, so its
# gate is tight; ns/op gets a 100% margin for shared runners.
bench-compare-replace:
	$(GO) test -run NONE -bench='ReplaceNetwork$$' -benchmem -benchtime=30x -cpu 1 . | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-18_replace_cold.json -fail-over 100 -fail-allocs-over 10

# Documentation lint (cmd/docscheck): every package and exported
# package-level identifier has a godoc comment, every relative link in
# the user-facing markdown resolves, and every `-flag` the docs mention
# is actually declared by a cmd/ binary.
docs-check:
	$(GO) run ./cmd/docscheck

# Machine-readable benchmark snapshot for the perf trajectory: runs the
# root benchmarks and archives them under results/bench/.
bench-json:
	$(GO) test -run NONE -bench=. -benchmem $(BENCHFLAGS) . | $(GO) run ./cmd/benchjson > results/bench/BENCH_$(shell date +%F).json

# Compute a placement and serve it with the monitoring daemon.
serve:
	$(GO) run ./cmd/placemon place -topology Tiscali -services 3 -alpha 0.6 -o /tmp/placement.json
	$(GO) run ./cmd/placemond -placement /tmp/placement.json -addr :8080

# Short fuzz session over the edge-list parser.
fuzz:
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 30s ./internal/graph/

# Smoke every fuzz target briefly: enough to catch a freshly broken
# invariant or panic without a dedicated fuzz farm. FUZZTIME=5s for an
# even quicker local pass.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run NONE -fuzz FuzzShortestPathTree -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run NONE -fuzz FuzzObservations -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run NONE -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run NONE -fuzz FuzzMembershipParse -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run NONE -fuzz FuzzGreedyLazyEquivalence -fuzztime $(FUZZTIME) ./internal/placement/
	$(GO) test -run NONE -fuzz FuzzEvaluatorTry -fuzztime $(FUZZTIME) ./internal/placement/
	$(GO) test -run NONE -fuzz FuzzPartitionRefine -fuzztime $(FUZZTIME) ./internal/monitor/
	$(GO) test -run NONE -fuzz FuzzLoadPlacement -fuzztime $(FUZZTIME) .

# Regenerate every evaluation artifact (text + CSV) into results/.
experiments:
	$(GO) run ./cmd/experiments -out results | tee results/all.txt

# Execute the declared experiment grid (experiments.json: placement runs
# plus loadgen profiles) into a timestamped paper_runs/<ts>/ tree and
# validate every regenerated CSV against the goldens in results/.
paper-runs:
	$(GO) run ./cmd/experiments -grid experiments.json -runs-dir paper_runs -goldens results

# Open-loop load smoke: ≤30s of sustained traffic against an in-process
# placemond, reconciled against the server's own histograms and gated by
# the repo's declared SLO (slo.json). Non-zero exit on violation.
soak-smoke:
	$(GO) run ./cmd/placemon loadgen -rps 150 -duration 20s -scenarios 4 -slo slo.json

# The final deliverable logs.
results:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f test_output.txt bench_output.txt
