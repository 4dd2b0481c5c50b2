# Mirrors .github/workflows/ci.yml: `make ci` runs CI's steps in CI's order,
# plus one local-only step, `test` (the suite without the race detector;
# CI's test step is `race`).

GO ?= go

.PHONY: build examples clismoke test race pins fuzz fmacheck bench benchmark benchpairs smokeflake lint detlint staticcheck govulncheck fmt ci benchsweep benchgate clean

build:
	$(GO) build ./...

# Compile every example program (CI runs this so examples never rot).
examples:
	$(GO) build -o /dev/null ./examples/...

# The two experiment CLIs end to end on tiny cells (CI runs this too): a
# replicated run, the trained threshold strategy (offline training
# included), and a replicated figure sweep; then the dispatch proxy's
# isolation and HA-recovery proofs (exit 1 when either is false) and the
# live example, whose observer must count the rejections the metrics do
# (exit 1 otherwise).
clismoke:
	$(GO) run ./cmd/wattersim -alg WATTER-timeout -n 200 -m 20 -replicates 2
	$(GO) run ./cmd/wattersim -alg WATTER-expect -n 200 -m 20
	$(GO) run ./cmd/watterbench -fig fig5 -city cdc -scale 0.1 -replicates 2 -algs GDP,WATTER-online -quiet -csv /tmp/fig5.csv
	$(GO) run ./cmd/watterproxy -quiet
	$(GO) run ./examples/live -n 100

test:
	$(GO) test ./...

# Shuffled so test-order coupling fails here before it fails in CI.
race:
	$(GO) test -race -shuffle=on ./...

# The steady-state allocation pins (DESIGN.md §12) without the race
# detector, which drops a roadnet.Graph's pooled search scratch at random:
# `race` skips the pins' Graph arms (gridindex's ALT and hierarchy probes,
# the leg store's fill-and-release cycle), and this step holds them.
PINS = TestPlanGroupCostLegsAllocations|TestPlanGroupAllocations|TestPlanCacheAllocations|TestSlotsRecycle|TestTickAllocations|TestPredictWithDoesNotAllocate|TestSplitPassAllocatesNothing|TestThresholdSteadyStateAllocatesNothing|TestProbeAllocatesNothing|TestHeldScratchSearchAllocatesNothing|TestLegStoreReleaseRecyclesBlock

pins:
	$(GO) test -count=1 -run '^($(PINS))$$' ./internal/...

# Ten seconds of coverage-guided fuzzing on each parser that reads outside
# input — the model-snapshot loader and the model-bundle loader — on the five kernels held to an oracle — the route DP, the
# batched cost-matrix search against the reference Dijkstra, the worker
# probe's ring search against the square scan, the threshold strategy's
# bound-first decision against the full fold, and the value network's split
# pass against the exact pass within its proved radius — and on two stateful
# targets under operation scripts, the platform's lifecycle and the order
# pool against its cache-free twin, on top of the seed corpora in
# internal/{roadnet,nn,route,gridindex,strategy,exp,platform,pool}/testdata/fuzz
# that `test` always runs.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCostMatrix -fuzztime=10s ./internal/roadnet
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=10s ./internal/nn
	$(GO) test -run='^$$' -fuzz=FuzzSplitRadius -fuzztime=10s ./internal/nn
	$(GO) test -run='^$$' -fuzz=FuzzPlanGroup -fuzztime=10s ./internal/route
	$(GO) test -run='^$$' -fuzz=FuzzClosestIdleWithin -fuzztime=10s ./internal/gridindex
	$(GO) test -run='^$$' -fuzz=FuzzThresholdDecision -fuzztime=10s ./internal/strategy
	$(GO) test -run='^$$' -fuzz=FuzzLoadTrained -fuzztime=10s ./internal/exp
	$(GO) test -run='^$$' -fuzz=FuzzPlatformOps -fuzztime=10s ./internal/platform
	$(GO) test -run='^$$' -fuzz=FuzzPoolOps -fuzztime=10s ./internal/pool

# No fused multiply-add in internal/ (DESIGN.md §6, §8): the Go spec lets a
# compiler fuse x*y + z unless the product is converted explicitly, amd64's
# never does, and these four do. Each compiles every package in FMA_PKGS —
# every package under internal/, so a new one is gated from its first
# commit — and any fused instruction in a symbol of one fails the
# check. Go's disassembly names them FMADDD/FMSUBD/FNMADDD/FNMSUBD (arm64,
# riscv64), FMADD/FMSUB/FNMADD/FNMSUB (ppc64le) and MADBR/MSDBR and their
# memory and vector forms (s390x).
FMA_ARCHS = arm64 ppc64le s390x riscv64
FMA_PKGS = $(notdir $(shell $(GO) list ./internal/...))
FMA_OPS = FN?M(ADD|SUB)[DS]?|M[AS][DE]BR?|WFN?M[AS][DS]B|VFN?M[AS][DS]?B?

fmacheck:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf '$$dir EXIT; total=0; \
	for arch in $(FMA_ARCHS); do for pkg in $(FMA_PKGS); do \
		GOARCH=$$arch $(GO) build -o $$dir/$$pkg.a ./internal/$$pkg; \
		$(GO) tool objdump -s '^watter/internal/'$$pkg'\.' $$dir/$$pkg.a > $$dir/$$pkg.dis; \
		n=$$(grep -cE '[[:space:]]($(FMA_OPS))[[:space:]]' $$dir/$$pkg.dis || true); \
		[ $$n = 0 ] || grep -E '[[:space:]]($(FMA_OPS))[[:space:]]' $$dir/$$pkg.dis; \
		echo "$$arch watter/internal/$$pkg: $$n fused"; total=$$((total + n)); \
	done; done; \
	echo "$$total fused instructions"; [ $$total = 0 ]

# Smoke-run every go test benchmark once (no timing stability, just "they
# run"): the internal/ kernel micro-benchmarks and BenchmarkPoolRadius.
# The figure sweeps are watterbench -fig's; end-to-end speed is
# `make benchmark`'s.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The repository benchmark: closed-loop dispatch replay on all four
# workloads, end-to-end metrics (benchmark/README.md; BENCHMARK.json).
benchmark:
	$(GO) run ./benchmark -workload all -seed 1

# Paired end-to-end runs of one workload, the parent revision against the
# working tree: `make benchpairs W=cdc_timeout N=10 PARENT=HEAD~1`. The
# parent is checked out in a git worktree under BENCHPAIRS_DIR and both sides
# build ./benchmark once; pair i runs seed i on both sides, BENCH_SECONDS
# each, the parent first in odd pairs and second in even ones, each run from
# its own checkout, results in BENCHPAIRS_DIR/{parent,change}. It ends with
# `benchmark -compare parent change`: per-metric medians, change/parent
# ratios and the BENCHMARK.json bounds (exit 1 when a bound is broken).
W ?= cdc_timeout
N ?= 10
PARENT ?= HEAD
BENCH_SECONDS ?= 20
BENCHPAIRS_DIR ?= /tmp/benchpairs

benchpairs:
	@set -e; dir=$(BENCHPAIRS_DIR); rm -rf $$dir; mkdir -p $$dir; \
	git worktree add --detach $$dir/parent-src $(PARENT) >/dev/null; \
	trap 'git worktree remove --force '$$dir'/parent-src' EXIT; \
	(cd $$dir/parent-src && $(GO) build -o $$dir/parent.bin ./benchmark); \
	$(GO) build -o $$dir/change.bin ./benchmark; \
	run() { side=$$1 seed=$$2; src=$$PWD; [ $$side = parent ] && src=$$dir/parent-src; \
		(cd $$src && $$dir/$$side.bin -workload $(W) -seed $$seed -seconds $(BENCH_SECONDS) -out $$dir/$$side >/dev/null); \
		echo "pair $$seed: $$side done"; }; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) = 1 ]; then run parent $$i; run change $$i; else run change $$i; run parent $$i; fi; \
	done; \
	$$dir/change.bin -compare $$dir/parent $$dir/change

# How often each TestSmoke workload fails: its root-coverage check reads low
# now and then, more often the faster the tick gets. Twenty runs of every
# subtest, one line "<workload>: k/20 failed" per workload, so a change that
# speeds up one workload shows that workload's own count; compare a change
# against its parent over several batches.
smokeflake:
	@$(GO) test -count=20 -run 'TestSmoke' -v ./benchmark 2>&1 | \
		awk '$$1 == "---" && $$3 ~ /^TestSmoke\// {w = substr($$3, 11); n[w]++; if ($$2 == "FAIL:") f[w]++} \
			END {for (w in n) printf "%s: %d/%d failed\n", w, f[w], n[w]}' | sort

lint:
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	@if git grep -n ROADMAP -- '*.go'; then \
		echo "code cites ROADMAP, which a re-anchor renumbers: cite a DESIGN.md section or CHANGES.md instead"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/detlint ./...

# Determinism-contract analyzers alone: the syntactic maprange/walltime/
# globalrand and the whole-module testonly (DESIGN.md §11); lint runs
# them too.
detlint:
	$(GO) run ./cmd/detlint ./...

# CI runs govulncheck with network access; locally it runs when on PATH.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

# CI installs staticcheck itself; locally it runs when on PATH.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

fmt:
	gofmt -w .

ci: lint staticcheck govulncheck build fmacheck examples clismoke test race pins fuzz bench benchgate

# The sequential-vs-parallel sweep engine's row. benchsweep re-records the
# committed BENCH_sweep.json in place, holding the fresh row to it first (run
# it with GOMAXPROCS=2: watterbench refuses a row recorded on other cores).
# benchgate is what CI's bench step runs: the same check on a copy, so the
# committed row stays as it is; the fresh row is printed either way.
benchsweep:
	$(GO) run ./cmd/watterbench -benchsweep BENCH_sweep.json

benchgate: export GOMAXPROCS = 2
benchgate:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf '$$dir EXIT; \
	cp BENCH_sweep.json $$dir/; \
	$(GO) run ./cmd/watterbench -benchsweep $$dir/BENCH_sweep.json -quiet

clean:
	$(GO) clean
	rm -f watterbench wattersim wattertrain watterload watterproxy
