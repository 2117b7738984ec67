GO ?= go

.PHONY: check vet lint build test race bench bench-dcn bench-te bench-chaos bench-sched bench-ctl bench-wal profile-dcn experiments clean

# The gate every change must pass: vet (which runs the lint suite), build
# everything, then race-test every package. One `go test -race ./...`
# already covers the concurrency-heavy suites (the par worker pool, the TE
# runner, the chaos injector, the online scheduler, the pipelined ctlrpc
# server and the WAL group-commit writer), so no package needs a second,
# separate race run.
check: vet build race

# gofmt -l prints unformatted files; any hit fails the target with a
# readable diagnostic. vet folds in the project analyzer suite (lint):
# go vet catches generic Go mistakes, lwlint enforces the lightwave
# contracts (determinism, virtual time, lock order, hot-path allocation,
# durability) documented in DESIGN.md §15.
vet: lint
	$(GO) vet ./...
	@fmtout=$$(gofmt -l cmd internal); if [ -n "$$fmtout" ]; then echo "gofmt needed:"; echo "$$fmtout"; exit 1; fi

# The project-invariant analyzer suite. Exits non-zero on any finding;
# findings are fixed or suppressed in-line with //lwlint:ignore plus a
# written reason. `go run ./cmd/lwlint -json ./...` gives the same
# results machine-readably.
lint:
	$(GO) run ./cmd/lwlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# Repeated runs of the DCN flow-simulator benchmarks in machine-readable
# form: the end-to-end §4.2 reproduction (DCNTopologyEngineering), the
# per-event hot loop (FlowSimEvents, MaxMinRates — the latter two must stay
# at 0 allocs/op), and the control-plane composition path (ComposeFullPod)
# for contrast. Run before and after any change to internal/dcn's hot paths
# and commit BENCH_dcn.json so the perf trajectory is tracked in-repo.
bench-dcn:
	$(GO) test -json -run '^$$' -bench 'DCNTopologyEngineering|FlowSimEvents|MaxMinRates|ComposeFullPod' -benchmem -count=5 . ./internal/dcn > BENCH_dcn.json

# Repeated runs of the TE-loop hot paths in machine-readable form: the
# per-epoch predictor update and the full planner decision (engineer +
# two fluid solves + staging). Commit BENCH_te.json so the decision
# latency trajectory is tracked in-repo.
bench-te:
	$(GO) test -json -run '^$$' -bench 'PredictorUpdate|PlannerDecide' -benchmem -count=5 ./internal/te > BENCH_te.json

# CPU profile of the heaviest bench; inspect with
# `$(GO) tool pprof dcn.test dcn.cpuprof` (live daemons expose the same
# data on <metrics-addr>/debug/pprof/profile).
# Repeated runs of the fault-injection hot paths in machine-readable form:
# full scenario replay through a live fleet manager (ScenarioReplay) and the
# injector's trunk bookkeeping (InjectorHotPath — must stay at 0 allocs/op).
# Commit BENCH_chaos.json so the injection overhead trajectory is tracked
# in-repo.
bench-chaos:
	$(GO) test -json -run '^$$' -bench 'ScenarioReplay|InjectorHotPath' -benchmem -count=5 ./internal/chaos > BENCH_chaos.json

# Repeated runs of the online-scheduler hot paths in machine-readable form:
# the steady-state submit/advance loop (SchedulerHotPath) and the bare
# placement decision per policy (PlacementDecision). Commit BENCH_sched.json
# so the per-job scheduling overhead is tracked in-repo.
bench-sched:
	$(GO) test -json -run '^$$' -bench 'SchedulerHotPath|PlacementDecision' -benchmem -count=5 ./internal/sched > BENCH_sched.json

# Repeated runs of the control-plane load harness in machine-readable form:
# the single-in-flight baseline (CtlRPCThroughput) against the pipelined
# configurations (CtlRPCPipelined at 8 conns x 8 in-flight, and
# CtlRPCPipelinedOneConn isolating pipelining from connection fan-out).
# Each run reports sustained req/s plus p50/p99 latency. Commit
# BENCH_ctl.json so the control-plane throughput trajectory is tracked
# in-repo; the pipelined configuration must sustain >=5x the baseline.
bench-ctl:
	$(GO) test -json -run '^$$' -bench 'CtlRPCThroughput|CtlRPCPipelined' -benchmem -count=5 ./internal/ctlrpc > BENCH_ctl.json

# Repeated runs of the WAL hot paths in machine-readable form: the
# group-commit append under real fsyncs (WALAppend), the fsync-free
# framing cost (WALAppendNoSync), fsync amortization across concurrent
# appenders (WALAppendParallel), and cold-start replay (WALReplay).
# Commit BENCH_wal.json so the durability overhead trajectory is tracked
# in-repo.
bench-wal:
	$(GO) test -json -run '^$$' -bench 'WALAppend|WALReplay' -benchmem -count=5 ./internal/wal > BENCH_wal.json

profile-dcn:
	$(GO) test -run '^$$' -bench 'DCNTopologyEngineering' -benchtime 5x -cpuprofile dcn.cpuprof -o dcn.test .

experiments:
	$(GO) run ./cmd/experiments

clean:
	$(GO) clean ./...
