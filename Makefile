GO ?= go

.PHONY: all build vet fmt-check lint lint-json vet-strict kerncheck kbench-vet test race bench-smoke bench-parallel bench-trace bench-kio bench-net bench-fuzz fuzz-smoke kbench-smoke kbench-ab panic-storm demo-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing them, if gofmt would rewrite any Go
# file in the tree (kbench and analysis testdata included).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

# Static analysis gate: strict go vet plus the kerncheck multichecker
# (see DESIGN.md "Static analysis"). All ten passes run at zero
# findings tree-wide.
lint: kerncheck vet-strict

vet-strict:
	$(GO) vet -unusedresult -copylocks -printf -bools -nilfunc -unreachable ./...

kerncheck:
	$(GO) run ./cmd/kerncheck

# Machine-readable lint for CI: findings plus per-pass wall timing in
# kerncheck-report.json. Exits non-zero on any finding, same as the
# plain gate.
lint-json:
	$(GO) run ./cmd/kerncheck -json > kerncheck-report.json || (cat kerncheck-report.json; exit 1)
	cat kerncheck-report.json

# The full suite, then again under the race detector (the concurrency
# stress tests in pkg/safelinux and the sharded-cache tests are only
# meaningful with -race).
test:
	$(GO) test ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark: catches bit-rot in bench code
# without paying for real measurement runs. About 20 s with
# compilation on a 2-vCPU host, so `make check` runs it too.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The I/O-path scaling numbers (see DESIGN.md and BENCH_ioshard.json).
bench-parallel:
	$(GO) test -run xxx -bench Parallel -cpu 1,4,8 .

# Latency-plane overhead per tier (disabled / hist / hist+span /
# span-full / all-tracepoints / attached-probe) on the parallel I/O mix
# (see DESIGN.md "Observability v2" and BENCH_trace.json). -gate
# enforces the budget: disabled-gate overhead < 1% of op time and the
# full hist+span tier ≤ 5%; the target fails on a regression.
bench-trace:
	$(GO) run ./cmd/ktrace bench -out BENCH_trace.json -gate

# I/O engine: kio at QD 1/8/32 against a raw-device write+flush
# baseline (wall clock and simulated device time), the QD-1 kio/raw
# ratio, copy accounting, and the tracepoint gate share (see DESIGN.md
# "Async I/O (kio)" and BENCH_kio.json). Exits non-zero if the copy
# accounting breaks: one copy per write on the memcpy path, none and
# one avoided per write on the ownership-move path.
bench-kio:
	$(GO) run ./cmd/kiobench -out BENCH_kio.json

# The network benchmark (BENCH_net.json, schema v3): goodput and
# retransmits of a 32 KiB transfer at 0/1/5/20% loss, adaptive vs
# fixed RTO, on both TCP stacks. Exits non-zero if the adaptive RTO
# does not retransmit less than the fixed RTO at 5% loss. The
# differential and churn sweeps, port recycling, EADDRINUSE and idle
# timer checks are go test's (make test). See DESIGN.md "Networking".
bench-net:
	$(GO) run ./cmd/netbench -out BENCH_net.json

# Bounded deterministic differential-fuzzing gate (~seconds): replays
# the committed regression corpus plus a fixed-seed generative budget
# on both module stacks, failing on any divergence/oops/ownership
# violation or if coverage drops below the frozen floor. The library-
# level equivalents (campaign determinism, corpus replay) also run
# under -race in `make test`. See DESIGN.md "Fuzzing". It then runs
# the native mount target FuzzSafefsMount (patched safefs images; it
# fails on a panic, an oops or an ownership violation) for 5 s; `go
# test` alone replays its testdata/fuzz corpus. Under 10 s on a warm
# build cache, so `make check` runs it too.
fuzz-smoke:
	$(GO) run ./cmd/kfuzz -smoke
	$(GO) test -run '^$$' -fuzz '^FuzzSafefsMount$$' -fuzztime 5s ./internal/safemod/safefs

# kbench is its own module, so neither `go build ./...` nor `go vet
# ./...` compiles it: this is the quick check that it still builds
# against the kernel's current API.
kbench-vet:
	cd cmd/kbench && GOWORK=off $(GO) vet .

# kbench's own tests under the race detector: the smoke run of every
# workload, determinism, and the model oracle that checks each op's
# result. kbench is its own module, so it runs outside the workspace.
kbench-smoke:
	cd cmd/kbench && GOWORK=off $(GO) test -race .

# Alternating A/B pairs of kbench against another checkout, then
# `kbench compare` (the loop in cmd/kbench/README.md). PARENT is a
# checkout of the base commit; each side builds its own kbench. Which
# side runs first alternates pair by pair. Records and run output go to
# .bench_build/ab/; the target fails on a REGRESSION verdict.
#
#   make kbench-ab PARENT=../base WORKLOAD=fs-sync.legacy PAIRS=10
WORKLOAD ?= all
PAIRS ?= 10
kbench-ab:
	@test -n "$(PARENT)" || { echo "usage: make kbench-ab PARENT=<checkout> [WORKLOAD=<names>] [PAIRS=10]"; exit 2; }
	@out="$(CURDIR)/.bench_build/ab"; rm -rf "$$out"; mkdir -p "$$out"; \
	base() { (cd "$(PARENT)" && bash cmd/kbench/run.sh -workload $(WORKLOAD) -append -out "$$out/base.json") >> "$$out/runs.log" 2>&1; }; \
	change() { bash cmd/kbench/run.sh -workload $(WORKLOAD) -append -out "$$out/new.json" >> "$$out/runs.log" 2>&1; }; \
	for i in $$(seq $(PAIRS)); do \
		echo "kbench-ab: pair $$i of $(PAIRS)"; \
		if [ $$((i % 2)) = 1 ]; then base && change; else change && base; fi || { tail -20 "$$out/runs.log"; exit 1; }; \
	done; \
	bash cmd/kbench/run.sh compare "$$out/base.json" "$$out/new.json"

# The full 10k-program campaign with the BENCH_fuzz.json artifact
# (coverage ratio gate: cumulative must be >=2x seed-corpus-only).
bench-fuzz:
	$(GO) run ./cmd/kfuzz -n 10000 -bench BENCH_fuzz.json

# The faultinject campaign: a seeded storm of injected panics kills
# every compartment at least once under load; bystander workloads must
# record zero failures and the plane must converge back to healthy.
# TestGateStress runs beside it: concurrent crossings against looping
# drains, injected faults and restarts, checking the lock-free gate
# admits nothing into a completed drain. Two buf-fault tests join
# them: the fault stays in its compartment, and the buf restart keeps
# what the journal holds (committed metadata not yet checkpointed).
# Two drain tests: no op runs inside a swap's drained window, and a
# fault inside a swap's drain waits for the swap to end before the
# supervisor restarts the compartment. Three upgrade tests replace the
# live fs and net modules under load through UpgradeFS/UpgradeTCP,
# alone and together beside a mixed workload, with zero failed ops.
# Two buffer-cache tests race lockless hits against eviction in a
# bounded cache and check the eviction scan's second chance. Run under
# the race detector — the quarantine/restart window is where the
# interesting interleavings live — 20 times, since a restart race that
# fails once in 60 runs slips past a handful.
panic-storm:
	$(GO) test -race -run 'TestPanicStormConvergence|TestGateStress|TestFaultInOneCompartmentLeavesOthersServing|TestBufRestartKeepsCommittedMetadata|TestSwapUnderConcurrentLoadZeroDrops|TestFaultInSwapDrainWaitsForOwner|TestUpgradeUnderMixedLoad|TestConcurrentUpgradesSwapOnce|TestUpgradeFSUnderLoad|TestUpgradeNetUnderLoad|TestLocklessHitRacesEviction|TestEvictionSecondChance' -count 20 ./pkg/safelinux/ ./internal/safety/compartment/ ./internal/linuxlike/bufcache/

# Every demo once, failing on the first non-zero exit: cmd/kfsck
# (which checks its own three fsck verdicts), the campaign table, a
# short migration and each example. examples/filesystem and
# examples/ratechange print failing traces by design and exit 0. A
# demo's output is shown only when it fails. Under a second in total on
# a warm build cache.
DEMOS = ./cmd/kfsck "./cmd/figures -campaign" "./cmd/migrate -ops 200" $(addprefix ./,$(wildcard examples/*))
demo-smoke:
	@for d in $(DEMOS); do \
		echo "demo-smoke: go run $$d"; \
		out="$$($(GO) run $$d 2>&1)" || { echo "$$out"; echo "demo-smoke: $$d exited non-zero"; exit 1; }; \
	done

check: fmt-check build vet kbench-vet lint fuzz-smoke demo-smoke test bench-smoke
