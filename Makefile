# Developer entry points. The repository is pure Go with no dependencies;
# everything below is plain toolchain invocations.

GO ?= go

.PHONY: build test verify deadcode fuzz-smoke bench bench-smoke bench-gate loc trace metrics clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# STATICCHECK_VERSION pins the staticcheck release CI installs (and
# caches); bump deliberately so lint churn never lands by surprise.
STATICCHECK_VERSION ?= 2025.1.1

# verify is the pre-commit gate: vet, staticcheck (when installed — CI
# always runs it pinned; local runs without it just skip), the linker
# reachability check (make deadcode), full build,
# the full test suite, the race detector on the concurrency-heavy
# packages (the sharded metrics registry, the runtime core, the per-link
# fabric charging, the lock-free task queues and the placement views the
# workers build), the simulator, cache and memory packages
# under -race too (~40 s: the stress tests that hammer Machine.Access from
# one goroutine per core over the coherence directory and the lock-free
# tag arrays, and the streamed access path against its reference), the
# experiment pool of charm-bench under -race (experiments regenerated
# concurrently share one read-only Kronecker graph), the Chrome trace
# replay under -race (~5 min on 2 cores: with profiling on every worker
# writes its own tracer shard while the host reads the record), the
# lockstep baton's golden/model/liveness tests
# and the idle-turn predicate's soundness test ten times under -race at one
# and two procs with a timeout (a kernel that stops resuming, or that never
# gives up the only P, is a hang, not a failure), the two replay tests that used to read an unsettled fleet ten
# times under -race at one and two procs, a flake sweep three times at 1, 2
# and 8 procs of the core and obs suites and of the suites that assert the
# paper's claims on lockstep runtimes (baselines, the workloads, and the
# root package with its Example outputs), so a figure that moves with the
# host's scheduling fails here (~90 s on 2 cores), the metrics replay law
# on default-scale sens 25 times (24 replays against the first run, ~7 s:
# every non-host series, history point and table must repeat; the
# steal-order count that once depended on host pacing showed in most
# such sweeps), the
# benchmark's own module (bench/ is nested, so ./... does not reach it)
# plus its smoke run, and a short fuzz pass over the corpus-backed fuzzers
# (among them the differential ones: the streamed access path, cache Fill,
# the span pipeline and the star hub, each against its reference model).
verify:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs $(STATICCHECK_VERSION))"; \
	fi
	$(MAKE) deadcode
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/obs/... ./internal/core/... ./internal/fabric/... ./internal/task/... ./internal/place/...
	$(GO) test -race ./internal/sim/... ./internal/cache/... ./internal/mem/...
	$(GO) test -race ./cmd/charm-bench/
	$(GO) test -race -run TestTraceReplays ./cmd/charm-obs/
	$(GO) test -race -count=2 -run TestTenantIsolationReplay ./internal/core/
	$(GO) test -race -count=10 -cpu 1,2 -timeout 300s -run 'Lockstep' ./internal/core/
	$(GO) test -race -count=10 -cpu 1,2 -run 'TestPowerReplayBitIdentical|TestDeterministicTraceReplay' ./internal/core/
	$(GO) test -count=3 -cpu 1,2,8 ./internal/core/ ./internal/obs/ ./internal/baselines/ ./internal/workloads/... .
	$(GO) test -count=24 -run 'TestMetricsReplay/^sens-default$$' ./internal/harness/
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke >/dev/null
	$(MAKE) bench-smoke
	$(MAKE) fuzz-smoke

# deadcode links every program (the commands and the bench module) with
# inlining off and the linker's reachability dump, and fails
# naming each non-test function outside bench/ that none of them links and
# that deadcode_test.go's allowlist does not keep with a reason. It needs
# no tool beyond the Go toolchain, so it runs wherever verify runs.
deadcode:
	$(GO) test -tags deadcode -run '^TestDeadcode$$' -count=1 .

# bench-smoke compiles and runs every recorded benchmark for a fixed 10
# iterations: it cannot produce numbers worth reading, but it catches a
# benchmark that no longer builds, panics, or hangs before make bench (or
# CI's nightly bench job) trips over it.
bench-smoke:
	$(GO) test ./internal/core/ -run xxx -bench . -benchtime 10x -benchmem
	$(GO) test ./internal/sim/ -run xxx -bench BenchmarkMachineAccess -benchtime 10x -benchmem
	$(GO) test ./internal/place/ -run xxx -bench BenchmarkPlacement -benchtime 10x -benchmem
	$(GO) test ./internal/fabric/ -run xxx -bench BenchmarkFabric -benchtime 10x -benchmem
	$(GO) test ./internal/obs/ -run xxx -bench BenchmarkTracer -benchtime 10x -benchmem

# FUZZTIME bounds each fuzz-smoke target; 15s x 14 targets keeps the CI
# step near 3.5 minutes while still churning fresh inputs past the
# saved corpus.
FUZZTIME ?= 15s

# fuzz-smoke runs every fuzz target briefly (go test -fuzz accepts one
# target per invocation): the task-queue fuzzers, Alg. 2's collision
# property, the dispatch preference order against its reference model, the simulator memory-access fuzzer, the streamed access path
# against the per-line reference, the cache's Fill vs Lookup+Insert
# differential, the span pipeline against its reference model, the
# metrics document writer against encoding/json, the star
# fabric's hub link graph against the hand-written Star model, the
# lockstep engine's idle runs against its one-turn-per-grant engine, the
# fault plan's up-until horizon against CoreDown, and the spec-grammar
# parsers (tenant shares and topo specs).
fuzz-smoke:
	$(GO) test ./internal/task/ -run xxx -fuzz '^FuzzDequeSequential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/task/ -run xxx -fuzz '^FuzzInboxSequential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run xxx -fuzz '^FuzzUpdateLocationCollisionFree$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/place/ -run xxx -fuzz '^FuzzChipletsByPreference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/ -run xxx -fuzz '^FuzzMachineAccess$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/ -run xxx -fuzz '^FuzzAccessStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache/ -run xxx -fuzz '^FuzzCacheFill$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run xxx -fuzz '^FuzzBuildReport$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run xxx -fuzz '^FuzzMetricsJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fabric/ -run xxx -fuzz '^FuzzHubMatchesStar$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run xxx -fuzz '^FuzzIdleRun$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault/ -run xxx -fuzz '^FuzzCoreUpUntil$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tenant/ -run xxx -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/topology/ -run xxx -fuzz '^FuzzParseTopoSpec$$' -fuzztime $(FUZZTIME)

# bench runs the tier-1 benchmarks (-benchmem) and records the simulator
# access-path numbers (directory vs broadcast-scan) into
# BENCH_directory.json, the placement decision-plane numbers into
# BENCH_placement.json, and the engine fast-path and lockstep-handoff
# numbers — plus a measured charm-bench wall clock via -time-cmd — into
# BENCH_engine.json, all via cmd/benchjson. Recorded and gated runs pin
# -cpu $(BENCH_CPU): the checked-in records are 1-proc runs (task/* costs
# 2x at 2 procs on the same machine), and benchjson drops the -N name
# suffix, so a record matches a run on any host.
BENCH_CPU ?= 1

bench:
	$(GO) test ./internal/core/ -run xxx -bench . -benchtime 1s -benchmem
	$(GO) test ./internal/core/ -run xxx -bench BenchmarkEngine -benchtime 1s -benchmem -cpu $(BENCH_CPU) \
		| $(GO) run ./cmd/benchjson -o BENCH_engine.json \
		-note "engine fast path on AMDMilan7713x2: epoch-batched access accounting (access/batch vs nobatch), pooled task structs (task) and coroutine stacks (coro), each pair the same workload with the optimization toggled; turn/16, turn/32 = host ns per lockstep handoff with every worker yielding back to back, turn/16/work/2.5us and /10us = the same handoff with that much plain host arithmetic before each Yield, on two Ps whatever -cpu says, work included in ns/op (the bare rows understate what a workload pays per handoff: back-to-back yields keep the second scheduler thread spinning, so a wake through the Go scheduler costs 240 ns there, but with work between yields that thread sleeps and each wake was a futex, 3.7 and 19.6 us a turn before ISSUE 20 made the turn a coroutine switch), turn/self = the no-switch path (15 of 16 workers blocked in a barrier), turn/idle/tick, turn/idle/tick/32 = one idle turn of 8 and 32 workers drifting toward a far arrival inside idle runs with the governor ticking every 50 us (played and closed-form turns averaged)" \
		-time-cmd "$(GO) run ./cmd/charm-bench all"
	$(GO) test ./internal/sim/ -run xxx -bench BenchmarkMachineAccess -benchtime 1s -benchmem -cpu $(BENCH_CPU) \
		| $(GO) run ./cmd/benchjson -o BENCH_directory.json \
		-note "Machine.Access: coherence directory (dir) vs broadcast L3 scan (scan); readhot, writeshared, streamingmiss on AMDMilan7713x2, remotefill = one 32 KiB read (512 lines) of the topo experiment's shared-array traffic on mesh:4x2,fast=2,eff=4,accel=2"
	$(GO) test ./internal/place/ -run xxx -bench BenchmarkPlacement -benchtime 1s -benchmem -cpu $(BENCH_CPU) \
		| $(GO) run ./cmd/benchjson -o BENCH_placement.json \
		-note "internal/place decision plane on AMDMilan7713x2: rank build (one-time), per-decision view build and Select/ordering queries"
	$(GO) test ./internal/core/ ./internal/obs/ -run xxx -bench 'BenchmarkTracing|BenchmarkTracer' -benchtime 1s -benchmem -cpu $(BENCH_CPU) \
		| $(GO) run ./cmd/benchjson -o BENCH_obs.json \
		-note "causal job tracing. BenchmarkTracing, on the admission/dispatch path: off = disabled atomic gate, on = admit/stage/task span recording per job, emit = raw append to one shard. BenchmarkTracer, the export path on a synthetic svc-tenants buffer (9 shards, 126 168 spans, 42 001 traces), one op = the whole buffer: emit fills it, compact releases and reclaims the 16 800 completed jobs, walk = Tracer.eachTrace (the index walk that groups the buffer by trace), report = BuildReport; metrics-json = obs.WriteJSON of a svc-tenants-shaped registry (159 series, 616 history points) to io.Discard"
	$(GO) test ./internal/core/ -run xxx -bench BenchmarkPower -benchtime 1s -benchmem -cpu $(BENCH_CPU) \
		| $(GO) run ./cmd/benchjson -o BENCH_power.json \
		-note "closed-loop thermal/energy plane: access = hot-line read loop with the plane off vs armed-but-idle (per-access PMU cost), tick = one governor evaluation (energy integration, RC step, tier logic) per chiplet tick"
	$(GO) test ./internal/fabric/ -run xxx -bench BenchmarkFabric -benchtime 1s -benchmem -cpu $(BENCH_CPU) \
		| $(GO) run ./cmd/benchjson -o BENCH_fabric.json \
		-note "per-transfer charge cost of each interconnect fabric (route lookup + per-hop token-bucket charging) on a 2-socket 4x2 machine with a uniform-random transfer mix"

# bench-gate reruns the engine, access-path, placement, and fabric
# benchmarks and diffs them against the checked-in records, failing on any
# >15% ns/op regression (override with GATE_THRESHOLD). Run it before
# committing changes to the hot paths; make bench refreshes the records when
# a delta is deliberate.
GATE_THRESHOLD ?= 15

bench-gate:
	$(GO) test ./internal/core/ -run xxx -bench BenchmarkEngine -benchtime 1s -benchmem -cpu $(BENCH_CPU) \
		| $(GO) run ./cmd/benchjson -gate BENCH_engine.json -gate-threshold $(GATE_THRESHOLD)
	$(GO) test ./internal/sim/ -run xxx -bench BenchmarkMachineAccess -benchtime 1s -benchmem -cpu $(BENCH_CPU) \
		| $(GO) run ./cmd/benchjson -gate BENCH_directory.json -gate-threshold $(GATE_THRESHOLD)
	$(GO) test ./internal/place/ -run xxx -bench BenchmarkPlacement -benchtime 1s -benchmem -cpu $(BENCH_CPU) \
		| $(GO) run ./cmd/benchjson -gate BENCH_placement.json -gate-threshold $(GATE_THRESHOLD)
	$(GO) test ./internal/fabric/ -run xxx -bench BenchmarkFabric -benchtime 1s -benchmem -cpu $(BENCH_CPU) \
		| $(GO) run ./cmd/benchjson -gate BENCH_fabric.json -gate-threshold $(GATE_THRESHOLD)

# loc prints the sizes ROADMAP quotes, so a simplicity PR's headline
# figure is reproducible: non-test Go lines outside bench/ (comments and
# blank lines included), then test lines, then the settable fields (field
# lines, as go doc prints them) of the four configuration structs.
KNOB_STRUCTS = charm.Config charm/internal/core.Options charm/internal/core.JobServiceOptions charm/internal/sim.Config

loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs wc -l | tail -1
	@find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs wc -l | tail -1
	@for t in $(KNOB_STRUCTS); do \
		printf ' %s %s' $${t#charm/internal/} $$($(GO) doc -u $$t | sed -n '/struct {/,/^}/p' | \
			grep -cE '^\s+[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* +[^ /]'); \
	done; echo ' knobs'

# Observability smoke runs: a Chrome trace and a Prometheus metrics dump
# from the quickstart workload.
trace:
	$(GO) run ./cmd/charm-obs trace -o trace.json

metrics:
	$(GO) run ./cmd/charm-obs metrics

clean:
	rm -f trace.json
