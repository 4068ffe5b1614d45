GO ?= go
BENCHTIME ?= 1x
# Benchmarks run -count $(BENCHCOUNT) and benchdiff -record keeps the
# fastest run per name (min-of-N): scheduler and GC noise only ever adds
# time, so single-sample snapshots systematically overstate cost and make
# the 15% regression gate flappy.
BENCHCOUNT ?= 3
BENCH_OUT ?= BENCH_$(shell date +%F).json
# Opt-in perf gate: make check BENCH_BASELINE=BENCH_seed.json reruns the
# benchmarks and fails on a >15% time regression against that snapshot.
BENCH_BASELINE ?=

.PHONY: all check build fmt vet test determinism race detect-smoke bench bench-sim benchdiff benchgate telemetry-overhead engine-golden trace-golden postmortem-golden taggersim-golden fuzz fuzz-smoke churn-fuzz cache-fuzz cover examples experiments clean

all: check

# check is the pre-merge gate: build, gofmt, vet (the benchmark module
# too), tests, the parallel-determinism contract under the race
# detector, the full race suite, the detect-vs-prevent matrix smoke, the
# bounded differential fuzz smoke, the trace-format, post-mortem and
# taggersim report goldens, the telemetry overhead gate, and (opt-in via
# BENCH_BASELINE) the benchmark regression gate.
check: build fmt vet test determinism race detect-smoke fuzz-smoke churn-fuzz cache-fuzz trace-golden postmortem-golden taggersim-golden telemetry-overhead benchgate

build:
	$(GO) build ./...

# Every Go file must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# tagbench/ is a nested module that ./... never reaches, so it is vetted
# (and with it compiled) on its own: an internal API change must not
# break the benchmark unseen.
vet:
	$(GO) vet ./...
	cd tagbench && $(GO) vet ./...

test:
	$(GO) test ./...

# The par=1 vs par=N equivalence proofs, under the race detector: the
# parallel synthesis path must emit byte-identical rules and graphs, and
# the sweep runner's verdicts and merged telemetry must be independent of
# the worker count.
determinism:
	$(GO) test -race -run 'TestParallelDeterminism|TestChaosSweepParDeterminism|TestDetectMatrixParDeterminism' .

race:
	$(GO) test -race ./...

# The detect-vs-prevent matrix smoke under the race detector: the
# four-arm invariants (tagger prevents + detector stays quiet, detect
# and scan arms recover within bound, the control starves) on a small
# seed set, plus the ledger-vs-scan differential (the deadlock-episode
# ledger agrees with a from-scratch wait-for scan every 1µs over the
# figures, the four arms and a mid-deadlock reboot). Part of `make check`.
detect-smoke:
	$(GO) test -race -count=1 -run 'TestDetectMatrixSmoke|TestEpisodeLedgerMatchesScan' .

# Runs every benchmark and records the results as a JSON snapshot
# (BENCH_<date>.json) for the repo's performance trajectory. Override
# BENCHTIME for stabler numbers: make bench BENCHTIME=5x
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./... | tee /tmp/bench_run.txt
	$(GO) run ./cmd/benchdiff -record $(BENCH_OUT) /tmp/bench_run.txt

# The event-engine microbenchmarks alone: heap schedule/dispatch,
# steady-state forwarding (allocs/op must read 0 — gated by
# TestSteadyStateZeroAlloc and the benchgate's -alloc-threshold), and the
# large-Clos soak slice the sweep runner fans out over.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkEventScheduleDispatch|BenchmarkSteadyStateForwarding|BenchmarkLargeClosSoak' -benchmem -benchtime $(BENCHTIME) ./internal/sim/

# Compares two snapshots; fails on a >15% time regression.
# Usage: make benchdiff OLD=BENCH_seed.json NEW=BENCH_2026-08-05.json
benchdiff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

benchgate:
ifeq ($(strip $(BENCH_BASELINE)),)
	@echo "benchgate: skipped (set BENCH_BASELINE=BENCH_seed.json to enable)"
else
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./... > /tmp/benchgate_run.txt
	$(GO) run ./cmd/benchdiff -record /tmp/benchgate_run.json /tmp/benchgate_run.txt
	$(GO) run ./cmd/benchdiff -alloc-threshold 0.50 $(BENCH_BASELINE) /tmp/benchgate_run.json
endif

# Telemetry must be near-free for hot synthesis code: the instrumented
# Algorithm 2 benchmark (spans + merge counters live, the default) must
# stay within 5% of a TAGGER_TELEMETRY=off run of the same build.
# -count 5 + benchdiff's fastest-run dedupe keeps scheduler noise from
# tripping the tight threshold.
telemetry-overhead:
	TAGGER_TELEMETRY=off $(GO) test -run '^$$' -bench 'BenchmarkAlgorithm2Jellyfish200$$' -benchtime 100x -count 5 . > /tmp/telemetry_off.txt
	$(GO) test -run '^$$' -bench 'BenchmarkAlgorithm2Jellyfish200$$' -benchtime 100x -count 5 . > /tmp/telemetry_on.txt
	$(GO) run ./cmd/benchdiff -record /tmp/telemetry_off.json /tmp/telemetry_off.txt
	$(GO) run ./cmd/benchdiff -record /tmp/telemetry_on.json /tmp/telemetry_on.txt
	$(GO) run ./cmd/benchdiff -threshold 0.05 /tmp/telemetry_off.json /tmp/telemetry_on.json

# Verifies the engine-equivalence golden: every pinned scenario's event
# trace hash and PFC/drop counters, and the seeded chaos soaks' watchdog
# verdicts, must match testdata/engine_golden.json. `make test` already
# runs it; this target runs it alone. After an INTENTIONAL change to the
# simulator's observable events, regenerate with
# `make engine-golden UPDATE=1` and review the diff.
engine-golden:
ifeq ($(strip $(UPDATE)),)
	$(GO) test -count=1 -run TestEngineGolden .
else
	$(GO) test -count=1 -run TestEngineGolden . -update-engine-golden
endif

# Verifies the taggertrace golden fixtures: the checked-in fig10 trace
# captures (JSONL + binary) must render byte-identical reports, and the
# `-o jsonl` downgrade of the binary capture must be byte-identical to
# the JSONL capture. After an INTENTIONAL trace-format or report change,
# regenerate with `make trace-golden UPDATE=1` and review the diff (the
# binary header/entry layout is versioned — bump trace.Version when the
# wire layout itself changes).
trace-golden:
ifeq ($(strip $(UPDATE)),)
	$(GO) test -count=1 -run 'TestGolden' ./cmd/taggertrace/
else
	$(GO) test -count=1 -run 'TestGolden' ./cmd/taggertrace/ -update
endif

# Verifies the flight-recorder forensics goldens: the checked-in seeded
# incident capture (the detect arm's Fig 3 CBD onset) must render a
# byte-identical post-mortem report, a fresh capture of the same seed
# must be byte-identical to the checked-in one, and the recorder's
# steady-state record path must stay allocation-free. After an
# INTENTIONAL snapshot-encoding or report-layout change, regenerate with
# `make postmortem-golden UPDATE=1` and review the diff.
postmortem-golden:
ifeq ($(strip $(UPDATE)),)
	$(GO) test -count=1 -run 'TestGoldenPostmortem' ./cmd/taggertrace/
else
	$(GO) test -count=1 -run 'TestGoldenPostmortem' ./cmd/taggertrace/ -update
endif
	$(GO) test -count=1 -run 'ZeroAlloc' ./internal/trace/ ./internal/sim/

# Verifies the taggersim report goldens: the stdout of every fast
# experiment (fig10, fig11, table1, multiclass, budget, compression,
# recovery, churn -runs 1) must match cmd/taggersim/testdata/<exp>.golden
# byte for byte, and input an experiment cannot honour must exit 2.
# After an INTENTIONAL report change, regenerate with
# `make taggersim-golden UPDATE=1` and review the diff.
taggersim-golden:
ifeq ($(strip $(UPDATE)),)
	$(GO) test -count=1 ./cmd/taggersim/
else
	$(GO) test -count=1 -run 'TestGoldenStdout' ./cmd/taggersim/ -update
endif

fuzz:
	$(GO) test -fuzz FuzzDecodeRoCEv2 -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeIPv4 -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzDecodePFC -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzRunCase -fuzztime 60s ./internal/check/
	$(GO) test -fuzz FuzzShrinkConvergence -fuzztime 30s ./internal/check/
	$(GO) test -fuzz FuzzTraceDecode -fuzztime 30s ./internal/trace/

# Bounded differential fuzzing for the pre-merge gate: a few seconds of
# native coverage-guided fuzzing over the check battery plus a seeded
# taggerfuzz sweep of every topology family. Failing inputs shrink to
# runnable repro tests under internal/check/testdata/fuzz-corpus/.
fuzz-smoke:
	$(GO) test -fuzz FuzzRunCase -fuzztime 5s ./internal/check/
	$(GO) run ./cmd/taggerfuzz -seeds 25 -topo all -q

# The churn differential: fuzzed link-flap/drain/pod-add sequences where
# every step's incremental re-synthesis must match from-scratch synthesis
# rule-for-rule and re-pass the Theorem 5.1 oracle. Failures shrink to
# minimal event sequences.
churn-fuzz:
	$(GO) run ./cmd/taggerfuzz -churn -seeds 25 -q

# The synthesis-cache differential: every seed's synthesis served through
# one shared fingerprint-keyed cache (cold build, same-instance rehit,
# isomorphic twin instance) must be rule-for-rule identical to
# from-scratch synthesis and re-pass the oracle. Runs under the race
# detector: parallel seeds against the shared cache exercise the
# single-flight and LRU-eviction machinery concurrently.
cache-fuzz:
	$(GO) run -race ./cmd/taggerfuzz -cache -seeds 25 -q
	$(GO) test -race -count=1 -run 'TestCacheSweepShared' ./internal/check/

cover:
	$(GO) test -cover ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clos-deadlock
	$(GO) run ./examples/jellyfish-scale
	$(GO) run ./examples/bcube
	$(GO) run ./examples/controller-ops

experiments:
	$(GO) run ./cmd/taggergen -topo fig5 -rules
	$(GO) run ./cmd/taggersim -exp fig10
	$(GO) run ./cmd/taggersim -exp fig11
	$(GO) run ./cmd/taggersim -exp fig12
	$(GO) run ./cmd/taggersim -exp reconverge
	$(GO) run ./cmd/taggersim -exp table1
	$(GO) run ./cmd/taggersim -exp overhead
	$(GO) run ./cmd/taggersim -exp recovery
	$(GO) run ./cmd/taggersim -exp dcqcn
	$(GO) run ./cmd/taggersim -exp isolation
	$(GO) run ./cmd/taggersim -exp budget
	$(GO) run ./cmd/taggersim -exp compression
	$(GO) run ./cmd/taggersim -exp multiclass
	$(GO) run ./cmd/taggersim -exp chaos
	$(GO) run ./cmd/taggersim -exp churn
	$(GO) run ./cmd/taggersim -exp detect -runs 20
	$(GO) run ./cmd/taggerscale
	$(GO) run ./cmd/taggerscale -bcube

clean:
	$(GO) clean -testcache
