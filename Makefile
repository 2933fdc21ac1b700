# Convenience targets; everything is plain `go` underneath.

GO ?= go
# Extra flags for the benchmark targets, e.g. BENCHFLAGS=-benchtime=1x
# for a quick smoke run.
BENCHFLAGS ?=

.PHONY: all help build test race check chaos cluster-soak crash-smoke bench bench-check bench-oracles bench-json bench-smoke bench-compare bench-compare-ingest bench-compare-wal bench-compare-routing bench-compare-partition bench-compare-k2 bench-compare-replace bench-compare-build bench-stochastic docs-check fuzz fuzz-smoke experiments paper-runs soak-smoke results serve clean

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
	@echo "  bench-compare  registry-overhead run gated against the archived seed, streaming and diagnosis baselines (CI)"
	@echo "  bench-compare-ingest  ingest-curve allocations (memory and group-commit WAL, 1 and 8 writers) gated against the archived ingest baseline (CI)"
	@echo "  bench-compare-wal  WAL append/recovery run gated against the archived WAL baseline (CI)"
	@echo "  bench-compare-routing  shortest-path-tree kernel gated against the archived routing baseline (CI)"
	@echo "  bench-compare-partition  placement evaluation kernel gated against the archived partition baseline (CI)"
	@echo "  bench-compare-k2  k = 2 lazy GD placement on the paper workloads gated against the archived k = 2 baseline (CI)"
	@echo "  bench-compare-replace  one PUT …/network on a ~5 000-node scenario gated against the archived replace baseline (CI)"
	@echo "  bench-compare-build  one build of an observe-shaped scenario gated against the archived build baseline (CI)"
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
# batch must replay its original ack. TestScenarioPublication crashes a
# server right after batches raced a scenario's create, network revision
# or adoption, and requires the same byte-identical recovery.
crash-smoke:
	$(GO) test -race -run 'TestCrashMatrix|TestCrashServerMatrix|TestTorn|TestScenarioPublication' -v ./internal/wal/ ./internal/server/

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

# Multi-tenant serving overhead, gated three times from one measurement
# run: ns/op against the archived pre-refactor seed baseline (>10%
# fails), allocs/op against the zero-alloc streaming snapshot (>10%
# fails), and allocs/op against the snapshot that added the
# diagnosis-outage row (>10% fails), a diagnosis read during an outage,
# which the other two archives do not hold. So neither latency nor the
# allocation work can silently backslide. ns/op is not gated against the
# later snapshots — wall-clock swings too much run-to-run on shared CPUs
# for a freshly-tightened bound — but allocs/op is deterministic, so
# there the tight gate holds. The streaming snapshot's ingest-stream row
# prints as only in baseline: that wire format is gone. The bare
# snapshot names resolve via benchjson's archive fallback to
# results/bench/, where the BENCH_*.json snapshots live. Every benchjson
# gate runs at -cpu 1: the archives were recorded at GOMAXPROCS 1, and
# at more CPUs `go test` suffixes each benchmark name with -N, which
# would leave no name in common with the archive.
bench-compare:
	$(GO) test -run NONE -bench=RegistryOverhead -benchmem -benchtime=2000x -cpu 1 . > /tmp/bench_registry.txt
	$(GO) run ./cmd/benchjson -compare BENCH_2026-08-06_registry_seed.json -fail-over 10 < /tmp/bench_registry.txt
	$(GO) run ./cmd/benchjson -compare BENCH_2026-08-08_streaming.json -fail-allocs-over 10 < /tmp/bench_registry.txt
	$(GO) run ./cmd/benchjson -compare BENCH_2026-10-19_diagnosis.json -fail-allocs-over 10 < /tmp/bench_registry.txt

# The ingest curve's allocations: BenchmarkIngestWAL's in-memory and
# group-commit WAL rows at 1 and 8 writers, on one scenario and spread
# over 8, each 2 000 observe-sized batches of 256 reports through the
# handler, gated on allocs/op against the snapshot archived when every
# mode took the tenant's ingest lock and the monitor lost its goroutine.
# A batch costs 50–63 allocations, counting every goroutine's (the
# group commit's and compaction's included), and the count repeats to
# within a few percent, so the gate is tight: a per-batch allocation in
# the decode, the dedup window, the monitor or the WAL path shows. ns/op
# is not gated: these rows include fsyncs and compactions, and the
# contended ones swing with the host.
bench-compare-ingest:
	$(GO) test -run NONE -bench='IngestWAL/^(memory|wal-group)$$/^w(1|8)$$' -benchmem -benchtime=2000x -cpu 1 . | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-19_ingest.json -fail-allocs-over 10

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
# iterations, runs each benchmark five times (benchjson folds the five
# rows to their median, so one run slowed by a neighbour does not fail
# the gate) and allows a 100% margin: it catches order-of-magnitude
# regressions (a commit window returning to serial group appends, an
# accidental fsync per record in group mode, a quadratic recovery
# scan), not microsecond drift.
bench-compare-wal:
	$(GO) test -run NONE -bench='WALAppend|Recovery' -benchmem -benchtime=1000x -count 5 -cpu 1 ./internal/wal/ | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-17_wal.json -fail-over 100

# The routing kernel: one shortest-path tree over a ~5 000-node
# hierarchy, unit weights (breadth-first path) and the same edges at
# weight 2 (binary-heap path), gated against the snapshot archived when
# trees shrank to int32 parents and hop counts. allocs/op (4 on the BFS
# path, 19 on the heap) and B/op (61 520 and 326 126) are deterministic,
# so their gates are tight: a tree back at 16 bytes per node (122 944
# B/op on the unit row) fails the bytes gate though it allocates as
# often. ns/op gets a 100% margin for shared runners, which still fails
# a unit-weight graph sent back to the heap (about 10x the archived
# time).
bench-compare-routing:
	$(GO) test -run NONE -bench=ShortestPathTree -benchmem -benchtime=2000x -cpu 1 ./internal/graph/ | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-19_routing.json -fail-over 100 -fail-allocs-over 10 -fail-bytes-over 10

# The placement evaluation kernel: one lazy distinguishability placement
# over a ~5 000-node hierarchy (8 services × 10 clients, α = 0.3, the
# instance built before the timer), gated against the snapshot archived
# when the CELF heap stopped allocating per push and pop.
# evaluations/op (653), allocs/op (44) and B/op are deterministic, so
# the allocation gates are tight: a boxing heap coming back (1 470
# allocs/op) or a per-candidate partition clone (10 470) fails them.
# ns/op gets a 100% margin for shared runners.
bench-compare-partition:
	$(GO) test -run NONE -bench=PartitionPlacement -benchmem -benchtime=200x -cpu 1 ./internal/placement/ | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-19_partition.json -fail-over 100 -fail-allocs-over 10 -fail-bytes-over 10

# k = 2 placement: one lazy GD placement at k = 2 on each paper workload
# (α = 0.6, the paper's service counts), the objective counting over
# failure classes, gated against the snapshot archived when k ≥ 2 began
# counting class sets instead of failure sets. evaluations/op (108, 280,
# 1 378), allocs/op (6 099, 16 037, 94 987) and B/op are deterministic,
# so their gates are tight: counting over failure sets again (25 million
# allocs/op and 492 MB/op on AT&T) fails them. ns/op gets a 100% margin
# for shared runners.
bench-compare-k2:
	$(GO) test -run NONE -bench='LazyPlacementK2$$' -benchmem -benchtime=20x -cpu 1 . | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-19_k2.json -fail-over 100 -fail-allocs-over 10 -fail-bytes-over 10

# One network revision: ReplaceScenarioNetwork on a ~5 000-node
# hierarchy (8 services × 10 clients, α = 0.3), alternating between two
# one-link deltas between routers so every iteration removes one link,
# adds another, re-routes the network from the previous revision's
# trees, re-places the services with a cold lazy run and builds the
# tenant, gated against the snapshot archived when the QoS profile
# stopped routing a tree per client (about 80 of the 105 candidate-host
# trees built by search per PUT, the benchmark's trees-built/op).
# allocs/op and B/op are deterministic to within a few allocations, so
# their gates are tight: rebuilding every tree (105 by search, 9.83 MB/op
# against the archived 8.67 MB, +13 %), a tree per client again (11.3
# MB/op), or labels formatted per node again and a path-dedup map per
# element (about 27 000 allocs/op against 14 399), fail them. ns/op gets
# a 100% margin for shared runners.
bench-compare-replace:
	$(GO) test -run NONE -bench='ReplaceNetwork$$' -benchmem -benchtime=30x -cpu 1 . | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-20_replace_sweep.json -fail-over 100 -fail-allocs-over 10 -fail-bytes-over 10

# One scenario build: the facade's server.BuildFunc on an observe-shaped
# document (a ~2 000-node hierarchy, 8 services × 32 clients, α = 0.3),
# the work a scenario's creation, its WAL boot replay and a migration
# adopting it each pay, gated against the snapshot archived when the QoS
# profile began sweeping every client set at once instead of routing a
# tree per client (56 trees per build, one per distinct candidate host,
# the benchmark's trees-built/op). allocs/op and B/op are deterministic,
# so their gates are tight: a tree per client again (312 trees, 11.3
# MB/op against the archived 4.15 MB) fails them. ns/op gets a 100%
# margin for shared runners.
bench-compare-build:
	$(GO) test -run NONE -bench='ScenarioBuild$$' -benchmem -benchtime=30x -cpu 1 . | $(GO) run ./cmd/benchjson -compare BENCH_2026-10-20_build.json -fail-over 100 -fail-allocs-over 10 -fail-bytes-over 10

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
	$(GO) test -run NONE -fuzz FuzzReroute -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run NONE -fuzz FuzzMaxHops -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run NONE -fuzz FuzzObservations -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run NONE -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run NONE -fuzz FuzzMembershipParse -fuzztime $(FUZZTIME) ./internal/cluster/
	$(GO) test -run NONE -fuzz FuzzGreedyLazyEquivalence -fuzztime $(FUZZTIME) ./internal/placement/
	$(GO) test -run NONE -fuzz FuzzEvaluatorTry -fuzztime $(FUZZTIME) ./internal/placement/
	$(GO) test -run NONE -fuzz FuzzPartitionRefine -fuzztime $(FUZZTIME) ./internal/monitor/
	$(GO) test -run NONE -fuzz FuzzClassify -fuzztime $(FUZZTIME) ./internal/monitor/
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
