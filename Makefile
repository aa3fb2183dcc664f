GO ?= go

.PHONY: all build vet lint lint-json vet-strict kerncheck test race bench-smoke bench-parallel bench-trace bench-kio bench-net bench-net-quick bench-swap bench-fuzz fuzz-smoke kbench-smoke kbench-ab panic-storm check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis gate: strict go vet plus the kerncheck multichecker
# (see DESIGN.md "Static analysis"). The legacy baseline is drained and
# deleted: all nine passes run at zero findings tree-wide.
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
# without paying for real measurement runs.
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
# "Async I/O (kio)" and BENCH_kio.json).
bench-kio:
	$(GO) run ./cmd/kiobench -out BENCH_kio.json

# The network plane benchmark (BENCH_net.json, schema v2): adaptive
# vs fixed RTO goodput/retransmits, the 200+-schedule differential
# sweep plus the churn differential, per-tick cost at 100k idle
# connections vs the frozen pre-rebuild baseline (>=10x gate), 40k-
# connection churn with port recycling and typed EADDRINUSE, and the
# 512k-connection long-haul with per-connection memory and tick
# budget. Exits non-zero if any gate fails or any schedule diverges.
# See DESIGN.md "Network data plane".
bench-net:
	$(GO) run ./cmd/netbench -out BENCH_net.json

# Same gates with the long-haul shrunk to 64k connections — the quick
# loop for development machines.
bench-net-quick:
	$(GO) run ./cmd/netbench -out BENCH_net.json -longhaul-conns 64000

# Live hot-swap under load: extlike->safefs and tcb->safetcp on a
# running kernel with a sustained mixed workload (see DESIGN.md
# "Compartments & hot-swap" and BENCH_swap.json). Exits non-zero if
# any in-flight operation is dropped or fails across a swap.
bench-swap:
	$(GO) run ./cmd/swapbench -out BENCH_swap.json

# Bounded deterministic differential-fuzzing gate (~seconds): replays
# the committed regression corpus plus a fixed-seed generative budget
# on both module stacks, failing on any divergence/oops/ownership
# violation or if coverage drops below the frozen floor. The library-
# level equivalents (campaign determinism, corpus replay) also run
# under -race in `make test`. See DESIGN.md "Fuzzing".
fuzz-smoke:
	$(GO) run ./cmd/kfuzz -smoke

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
# Run under the race detector — the quarantine/restart window is where
# the interesting interleavings live.
panic-storm:
	$(GO) test -race -run TestPanicStormConvergence -count 5 ./pkg/safelinux/

check: build vet lint test
