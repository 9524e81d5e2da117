# Tier-1 entry points. `make test` is the fast gate (short mode, seconds);
# `make test-full` runs everything including the ~40s experiment
# reproductions; `make test-race` puts the race detector on the concurrent
# fleet/scheduler/malleable-pool/device/emulator/telemetry paths and on the
# clock and the edges that enter its world (qrmi, slurm), then runs the
# daemon's concurrent-intake tests and the served-edge stress twenty times
# over, so every entry into the world is stressed on every run.

GO ?= go

.PHONY: build test test-full test-race examples bench bench-diff bench-e2e-quick e2e-ab profile-serve profile-replay fuzz-smoke vet vet-trace check loc surface

build:
	$(GO) build ./...

test:
	$(GO) test -short ./...

test-full:
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/daemon/... ./internal/admission/... ./internal/sched/... ./internal/hybrid/... ./internal/device/... ./internal/emulator/... ./internal/telemetry/... ./internal/simclock/... ./internal/qrmi/... ./internal/slurm/...
	$(GO) test -race -short ./internal/loadgen/...
	$(GO) test -race -count=20 -run 'Concurrent|TestServedEdgeStress' ./internal/daemon/

# examples builds each program under examples/ and runs it from a fresh
# temporary directory (trace_perfetto writes fleet_trace.json into its working
# directory), failing on the first that exits non-zero.
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && for dir in examples/*/; do \
		name=$$(basename $$dir); \
		$(GO) build -o "$$tmp/$$name" ./$$dir && (cd "$$tmp" && ./$$name > /dev/null) \
			|| { echo "examples: $$name failed"; exit 1; }; \
		echo "ok   examples/$$name"; \
	done

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# The benchmark selection behind bench-diff: the replay and
# dispatch hot paths in the root package plus the program-cache/router
# primitives in internal/daemon, plus the wide-matrix sweep and saturation
# search that gate the capacity-planning engine, plus the served write path
# (in-process HTTP, the profiling entry point) alone, beside an operator's
# reads and on the 1/2/8/32-client ladder, the TSDB append it leans on and the
# job reply it ends with, plus the emulator's SVD, the kernel of every MPS bond
# gate, at 16, 32 and 64.
BENCH_PATTERN = BenchmarkFleetDispatch|BenchmarkDaemonDispatch|BenchmarkLoadgen|BenchmarkProgramCache|BenchmarkWeightedRouterPick|BenchmarkClassQueuePop|BenchmarkSweepWideMatrix|BenchmarkSaturateSearch|BenchmarkServedSubmit|BenchmarkServedMixed|BenchmarkServedLadder|BenchmarkTSDBAppend$$|BenchmarkJobWireEncode|BenchmarkComplexSVD
BENCH_PKGS = . ./internal/daemon

# bench-diff is the perf gate: the suite built at BASE and from the working
# tree, run in PAIRS alternating pairs and judged by the rules in
# cmd/benchdiff's package comment; -require names the benchmarks and metrics
# the gate cannot do without. Ten pairs take ≈ 23 min on two cores.
bench-diff:
	$(GO) run ./cmd/benchdiff -base $(BASE) -pairs $(PAIRS) \
		-require BenchmarkLoadgenReplay,BenchmarkLoadgenReplayAffinity,BenchmarkLoadgenReplayPriority,BenchmarkLoadgenReplayBacklog,BenchmarkLoadgenReplayLong:allocs_per_job,BenchmarkLoadgenReplayStream:peak_heap_mb,BenchmarkLoadgenReadTrace,BenchmarkClassQueuePop,BenchmarkSweepWideMatrix:allocs_per_job,BenchmarkSaturateSearch,BenchmarkServedSubmit:http_requests_per_job,BenchmarkServedMixed:allocs_per_job,BenchmarkTSDBAppend,BenchmarkJobWireEncode,BenchmarkComplexSVD \
		'$(BENCH_PATTERN)' $(BENCH_PKGS)

# bench-e2e-quick keeps the end-to-end benchmark harness (benchmark/, a
# module of its own, so `go test ./...` here does not reach it) compiling
# against the API surface it froze and passing its own correctness gate: its
# unit tests, then one --quick pass over all five workloads (~1/50 scale).
bench-e2e-quick:
	$(GO) test -C benchmark -short ./...
	$(GO) run -C benchmark hpcqc/benchmark --seed 1 --quick

# e2e-ab is the end-to-end half of the gate: the benchmark/ harness at BASE
# and from the working tree, PAIRS alternating pairs of one untraced run of
# WORKLOAD (default: of each workload in turn) on seeds SEED, SEED+1, …, each
# BENCHMARK.json end-to-end metric judged by the same rules. A pair of one
# workload takes two full runs: ≈ 50 s at run_seconds 22.
PAIRS ?= 10
SEED ?= 1
e2e-ab:
	$(GO) run ./cmd/benchdiff e2e -base $(BASE) $(if $(WORKLOAD),-workload $(WORKLOAD)) -pairs $(PAIRS) -seed $(SEED)

# profile-serve is the standing way to look inside the served path: CPU and
# allocation profiles of BenchmarkServedSubmit (30 000 jobs, ~5 s), then of
# BenchmarkServedMixed (20 000 jobs beside an operator's scrapes, ~5 s), into
# .bench_build/, and the cumulative top of each. Dig further with
# `go tool pprof -list <func> .bench_build/serve.test .bench_build/serve_cpu.out`
# (serve_mixed_cpu.out for the second).
PROFILE_DIR = .bench_build
profile-serve:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkServedSubmit$$' -benchtime 30000x -benchmem \
		-cpuprofile $(PROFILE_DIR)/serve_cpu.out -memprofile $(PROFILE_DIR)/serve_mem.out \
		-o $(PROFILE_DIR)/serve.test .
	$(GO) tool pprof -top -cum -nodecount 40 $(PROFILE_DIR)/serve.test $(PROFILE_DIR)/serve_cpu.out
	$(GO) tool pprof -sample_index alloc_objects -top -cum -nodecount 40 $(PROFILE_DIR)/serve.test $(PROFILE_DIR)/serve_mem.out
	$(GO) test -run '^$$' -bench 'BenchmarkServedMixed$$' -benchtime 20000x -benchmem \
		-cpuprofile $(PROFILE_DIR)/serve_mixed_cpu.out -memprofile $(PROFILE_DIR)/serve_mixed_mem.out \
		-o $(PROFILE_DIR)/serve.test .
	$(GO) tool pprof -top -cum -nodecount 40 $(PROFILE_DIR)/serve.test $(PROFILE_DIR)/serve_mixed_cpu.out
	$(GO) tool pprof -sample_index alloc_objects -top -cum -nodecount 40 $(PROFILE_DIR)/serve.test $(PROFILE_DIR)/serve_mixed_mem.out

# profile-replay is profile-serve's twin for the trace file → replay → report
# path, on the replay-steady shape (four weeks of Poisson arrivals, ≈100 k
# jobs, 4 partitions, ≈0.5 s): CPU and allocation profiles of one `qcload
# replay` into .bench_build/, then the cumulative top of each — allocations
# both by objects and by bytes, since bytes are what set the GC's pace.
profile-replay:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/qcload ./cmd/qcload
	$(PROFILE_DIR)/qcload gen --out $(PROFILE_DIR)/profile_steady.jsonl --rate 150 --duration 672h --seed 1
	$(PROFILE_DIR)/qcload replay --trace $(PROFILE_DIR)/profile_steady.jsonl --devices 4 \
		--cpuprofile $(PROFILE_DIR)/replay_cpu.out --memprofile $(PROFILE_DIR)/replay_mem.out > /dev/null
	$(GO) tool pprof -top -cum -nodecount 40 $(PROFILE_DIR)/qcload $(PROFILE_DIR)/replay_cpu.out
	$(GO) tool pprof -sample_index alloc_objects -top -cum -nodecount 40 $(PROFILE_DIR)/qcload $(PROFILE_DIR)/replay_mem.out
	$(GO) tool pprof -sample_index alloc_space -top -cum -nodecount 40 $(PROFILE_DIR)/qcload $(PROFILE_DIR)/replay_mem.out

# fuzz-smoke runs each fuzz target for a fixed iteration count — a
# deterministic-duration CI pass over the trace-ingestion paths (the JSONL
# reader, the streamed replay and the SWF/sacct importers), over the ID
# lookups where a job-N or qpu-task-N string enters (the daemon's job table,
# the device's task table, the analyzer's track slab, the flight recorder's
# trace ring) and over the submit body the served daemon reads from the
# wire. Go fuzzing accepts
# exactly one -fuzz target per invocation, hence one command each. Crashers
# land in the package's testdata/fuzz/ for `go test` to replay forever after.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadTrace$$' -fuzztime=2000x ./internal/loadgen
	$(GO) test -run='^$$' -fuzz='^FuzzReplayReader$$' -fuzztime=2000x ./internal/loadgen
	$(GO) test -run='^$$' -fuzz='^FuzzImportSWF$$' -fuzztime=2000x ./internal/loadgen
	$(GO) test -run='^$$' -fuzz='^FuzzImportSacct$$' -fuzztime=2000x ./internal/loadgen
	$(GO) test -run='^$$' -fuzz='^FuzzJobLookup$$' -fuzztime=2000x ./internal/daemon
	$(GO) test -run='^$$' -fuzz='^FuzzSubmitBody$$' -fuzztime=2000x ./internal/daemon
	$(GO) test -run='^$$' -fuzz='^FuzzTaskLookup$$' -fuzztime=2000x ./internal/device
	$(GO) test -run='^$$' -fuzz='^FuzzAnalyzerJobID$$' -fuzztime=2000x ./internal/loadgen
	$(GO) test -run='^$$' -fuzz='^FuzzFlightRecorder$$' -fuzztime=2000x ./internal/trace

# surface runs the exported-surface gate verbosely: every exported name under
# internal/ that no non-test file reaches, printed with its reason from
# testdata/surface.allow. `make test` runs the same test.
surface:
	$(GO) test -count=1 -run '^TestExportedSurface$$' -v .

# vet also fails when gofmt would rewrite a file, listing it.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

# vet-trace is the trace-subsystem gate: vet plus the race detector over the
# trace package's own tests. Spans are emitted inside the daemon's world and
# the flight recorder keeps no lock of its own, so the served-path check that
# every read of it holds the world is test-race's stress line
# (TestServedEdgeStress reads the recorder through Handler() under -race).
vet-trace:
	$(GO) vet ./internal/trace/...
	$(GO) test -race ./internal/trace/...

# bench-e2e-quick is last on purpose: benchmark/ is a frozen surface compiled
# against this module's exported constructors and config fields, and its
# byte-equality gate (harness-traced report == loadgen.Replay's) is the proof
# that a refactor here left that surface and the reports intact.
check: vet vet-trace build test test-race examples bench-e2e-quick

# loc prints the figure every PR quotes in CHANGES.md, produced the same way
# each time: net non-test Go lines per package since BASE by `git diff
# --numstat` (run it after `git add -A`, or new files are not counted; a pure
# move nets to zero within a package), then any non-test .go file outside
# benchmark/ over 600 lines — ROADMAP item 2's bar, reported, not enforced.
BASE ?= HEAD~1
loc:
	@git diff --numstat --no-renames $(BASE) -- '*.go' | awk '$$3 !~ /_test\.go$$/ { \
		pkg = $$3; if (!sub(/\/[^\/]*$$/, "", pkg)) pkg = "."; \
		add[pkg] += $$1; del[pkg] += $$2; A += $$1; D += $$2 } \
		END { for (k in add) printf "%-32s %+6d  (+%d -%d)\n", k, add[k] - del[k], add[k], del[k] | "sort"; close("sort"); \
		printf "%-32s %+6d  (+%d -%d)\n", "net non-test Go", A - D, A, D }'
	@git ls-files -- '*.go' ':!benchmark/' | grep -v '_test\.go$$' | xargs wc -l | awk '$$2 != "total" && $$1 > 600 { printf "over 600 lines: %s (%d)\n", $$2, $$1 }'
