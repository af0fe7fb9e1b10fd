GO ?= go
# Relative regression tolerance for the benchmark gate; allocs/op and
# B/op beyond it fail, ns/op only warns (CI timing is noise).
BENCH_TOLERANCE ?= 0.10

.PHONY: build vet test perfbench race cross bench bench-json bench-compare bench-http bench-http-json profile verify serve doccheck determinism determinism-dist determinism-chaos fuzz-smoke ci

# Per-fuzzer budget for the fuzz-smoke gate.
FUZZTIME ?= 10s

build:
	$(GO) build ./...

# vet also fails on any tracked Go file gofmt would rewrite, and on any
# declaration that no non-test code uses (perfbench/ counts as a caller).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/deadcheck . perfbench

test:
	$(GO) test ./...

# The race job CI runs, reproducible locally. The par panic tests run
# 50 more times: they time how fast a panicking task stops its siblings.
# So does the campaign emit-panic test: a panic in emit must stop the
# rest of the grid before it reaches the caller.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=50 -run 'Panic' ./internal/par
	$(GO) test -race -count=50 -run TestCampaignPointsEmitPanicReachesCaller ./internal/core

# Cross-compile for the paper's actual target: the reproduction must
# keep building for riscv64 even though the model runs anywhere. The
# model must also give the same bytes there: arm64, riscv64, ppc64le
# and s390x fuse x*y + z into one multiply-add unless an explicit
# float64(...) conversion rounds the product, so the assembly of every
# byte-producing package must hold no fused instruction on any of them.
# internal/kernels* (real host execution) are left out, and so is
# internal/rvv: its vfmacc is fused, as the RVV spec defines it, so it
# calls math.FMA, which emits a fused multiply-add on purpose.
FMA_PKGS = . ./internal/core ./internal/perfmodel ./internal/machine ./internal/placement \
	./internal/cluster ./internal/roofline ./internal/stats ./internal/report ./internal/serve ./internal/fabric
cross:
	GOOS=linux GOARCH=riscv64 $(GO) build ./...
	@for arch in arm64 riscv64 ppc64le s390x; do \
	  asm=$$(GOOS=linux GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$asm"; exit 1; }; \
	  fused=$$(echo "$$asm" | grep -E '\s(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB)\s'); \
	  if [ -n "$$fused" ]; then echo "fused multiply-add on $$arch:"; echo "$$fused"; exit 1; fi; \
	done

# The study-engine benchmarks (uncached serial vs cold vs serving
# engine) plus everything else; -benchtime keeps the full sweep quick.
bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime 10x ./...

# Run the serving-path benchmarks across all four layers and write the
# results machine-readable (ns/op, B/op, allocs/op per benchmark) to
# BENCH_engine.json, so CI records the perf trajectory. See
# docs/PERFORMANCE.md for how to read them.
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_engine.json

# The benchmark regression gate: re-run the serving-path benchmarks and
# compare them against the committed BENCH_engine.json baseline.
# allocs/op or B/op regressions beyond BENCH_TOLERANCE fail; ns/op
# differences only warn. After a deliberate perf change, refresh the
# baseline with `make bench-json` and commit it.
bench-compare:
	@mkdir -p bin
	$(GO) run ./cmd/benchjson -o bin/BENCH_new.json
	$(GO) run ./cmd/benchjson -compare -tolerance $(BENCH_TOLERANCE) BENCH_engine.json bin/BENCH_new.json

# The serving-SLO gate: drive a short sg2042load burst against a
# self-hosted prewarmed server and compare the report against the
# committed BENCH_http.json baseline. Latency metrics (ns/op and the
# percentiles) only warn — CI timing is noise — but any request error
# (errors/op > 0) or a baseline endpoint x format target missing from
# the fresh run fails hard.
bench-http:
	@mkdir -p bin
	$(GO) run ./cmd/sg2042load -c 8 -d 2s -prewarm -o bin/BENCH_http_new.json
	$(GO) run ./cmd/benchjson -compare -tolerance $(BENCH_TOLERANCE) -fail-missing BENCH_http.json bin/BENCH_http_new.json

# Refresh the committed serving-SLO baseline after a deliberate change
# to the HTTP surface or the target list.
bench-http-json:
	$(GO) run ./cmd/sg2042load -c 8 -d 2s -prewarm -o BENCH_http.json

# CPU and heap profiles of the planner's headline path: a cold engine
# evaluating and rendering the 1024-point colliding campaign grid
# (BenchmarkCampaignPlanCold). The raw pprof files land in bin/ (CI
# uploads them as an artifact) and a flat top-15 of each is printed so
# a regression's hot spot is visible in the build log itself.
profile:
	@mkdir -p bin
	$(GO) test -run xxx -bench BenchmarkCampaignPlanCold -benchtime 20x \
	  -cpuprofile bin/campaign-cpu.pprof -memprofile bin/campaign-heap.pprof \
	  -o bin/repro-profile.test .
	$(GO) tool pprof -top -nodecount 15 bin/repro-profile.test bin/campaign-cpu.pprof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space bin/repro-profile.test bin/campaign-heap.pprof

verify: build vet test

# perfbench is its own module, so the root go test ./... never compiles
# it; vet and test it so a slip in the API it drives shows before the
# benchmark runs.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Fail on dangling doc references: Go files or markdown citing a
# docs/*.md that does not exist, and broken relative markdown links.
doccheck:
	$(GO) run ./cmd/doccheck

# The determinism contract (docs/ARCHITECTURE.md), checked as Go tests
# on the shipped entry points; none starts a process or takes a fixed
# port. determinism: sg2042sim's output at -parallel 1 and 8 for -exp
# all and each experiment, both example campaigns and a core sweep,
# text and CSV, each pinned to its line of the byte manifest.
determinism:
	$(GO) test -count=1 -run '^TestParallelFlagSameBytes$$' ./cmd/sg2042sim

# The distributed face: the fault-injection suite under the race
# detector (seeded mid-grid worker kills, corrupted streams, warm
# restarts), then two -worker daemons behind a -coordinate daemon
# against a plain one, before and after a worker stops.
determinism-dist:
	$(GO) test -race -count=1 ./internal/fabric/...
	$(GO) test -count=1 -run '^TestWorkerServesShardEndpoint$$' ./cmd/sg2042d

# The self-healing chaos gate: the fault-injection and replica suites
# under the race detector over three fault schedules (FABRIC_FAULT_SEED
# picks the victims and frames), then three -worker daemons behind a
# -replicas 2 coordinator with a fast prober: a worker stops, restarts
# on its old address and is warm-joined, then serves alone; every phase
# byte-identical to a plain daemon and nobody quarantined.
determinism-chaos:
	@set -e; for seed in 1 42 1337; do \
	  echo "== fault schedule seed $$seed =="; \
	  FABRIC_FAULT_SEED=$$seed $(GO) test -race -count=1 ./internal/fabric/... ./internal/serve; \
	done
	$(GO) test -count=1 -run '^TestReplicatedFleetEndToEnd$$' ./cmd/sg2042d

# Run every committed fuzzer for a short budget (FUZZTIME each) — the
# smoke layer between unit tests and a real fuzzing campaign. Patterns
# are anchored: internal/core and internal/serve each have several
# fuzzers, and go test -fuzz refuses to run more than one match.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCampaignSpecFromJSON$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSONString$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSONFloat$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzFromJSON$$' -fuzztime $(FUZZTIME) ./internal/machine
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzCampaignGridOrder$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreCache$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzNoiseSource$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePoint$$' -fuzztime $(FUZZTIME) ./internal/fabric

# Smoke-test sg2042d: a Go test boots the daemon's run on an ephemeral
# port, fetches Table 4 as text and, by content negotiation, as CSV
# (the examples/serveclient request), and shuts it down gracefully.
serve:
	$(GO) test -count=1 -run '^TestServeAndGracefulShutdown$$' ./cmd/sg2042d

# Everything the CI workflow runs, reproducible in one local command:
# tier-1 verify, doc references, the race detector, the riscv64
# cross-build, the byte-level determinism checks (single-process,
# distributed, and the self-healing chaos phases), the daemon smoke
# test, the fuzzer smoke pass and both regression gates (engine
# benchmarks and the serving SLO).
ci: verify doccheck perfbench race cross determinism determinism-dist determinism-chaos serve fuzz-smoke bench-compare bench-http
	@echo "ci OK"
