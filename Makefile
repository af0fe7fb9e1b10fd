GO ?= go
SERVE_ADDR ?= 127.0.0.1:18042
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
race:
	$(GO) test -race ./...
	$(GO) test -race -count=50 -run 'Panic' ./internal/par

# Cross-compile for the paper's actual target: the reproduction must
# keep building for riscv64 even though the model runs anywhere. The
# model must also give the same bytes there: arm64, riscv64, ppc64le
# and s390x fuse x*y + z into one multiply-add unless an explicit
# float64(...) conversion rounds the product, so the assembly of every
# byte-producing package must hold no fused instruction on any of them.
# internal/rvv (the RVV interpreter) and internal/kernels* (real host
# execution) are left out.
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

# Byte-diff the CLI's serial and parallel outputs for the full
# experiment set, both example campaigns and a core-count sweep (text
# and CSV) — the determinism contract (docs/ARCHITECTURE.md), enforced
# end to end through the real binary.
determinism:
	@mkdir -p bin
	$(GO) build -o bin/sg2042sim ./cmd/sg2042sim
	./bin/sg2042sim -exp all -parallel 1 > bin/det-all-serial.txt
	./bin/sg2042sim -exp all -parallel 8 > bin/det-all-parallel.txt
	cmp bin/det-all-serial.txt bin/det-all-parallel.txt
	./bin/sg2042sim -campaign examples/campaign/spec.json -parallel 1 > bin/det-campaign-serial.txt
	./bin/sg2042sim -campaign examples/campaign/spec.json -parallel 8 > bin/det-campaign-parallel.txt
	cmp bin/det-campaign-serial.txt bin/det-campaign-parallel.txt
	./bin/sg2042sim -campaign examples/scaling/campaign.json -parallel 1 > bin/det-scaling-serial.txt
	./bin/sg2042sim -campaign examples/scaling/campaign.json -parallel 8 > bin/det-scaling-parallel.txt
	cmp bin/det-scaling-serial.txt bin/det-scaling-parallel.txt
	./bin/sg2042sim -sweep cores=8,16,32,64 -parallel 1 > bin/det-sweep-serial.txt
	./bin/sg2042sim -sweep cores=8,16,32,64 -parallel 8 > bin/det-sweep-parallel.txt
	cmp bin/det-sweep-serial.txt bin/det-sweep-parallel.txt
	./bin/sg2042sim -sweep cores=8,16,32,64 -csv -parallel 1 > bin/det-sweep-serial.csv
	./bin/sg2042sim -sweep cores=8,16,32,64 -csv -parallel 8 > bin/det-sweep-parallel.csv
	cmp bin/det-sweep-serial.csv bin/det-sweep-parallel.csv
	@echo "determinism OK: serial == parallel for -exp all, both campaigns (incl. multi-socket) and a core sweep (text and CSV)"

# The distributed face of the determinism contract, in two layers.
# First the fault-injection suite under the race detector: seeded
# mid-grid worker kills, corrupted streams and warm-restarted caches
# must all leave the campaign bytes identical to a single process.
# Then the real binary: two -worker daemons behind a -coordinate
# daemon serve a campaign byte-identical to a plain daemon — including
# after one worker is killed outright.
determinism-dist:
	@mkdir -p bin
	$(GO) test -race -count=1 ./internal/fabric/...
	$(GO) build -o bin/sg2042d ./cmd/sg2042d
	@set -e; \
	./bin/sg2042d -addr 127.0.0.1:18143 -worker > bin/dist-w1.log 2>&1 & w1=$$!; \
	./bin/sg2042d -addr 127.0.0.1:18144 -worker > bin/dist-w2.log 2>&1 & w2=$$!; \
	./bin/sg2042d -addr 127.0.0.1:18145 \
	  -coordinate http://127.0.0.1:18143,http://127.0.0.1:18144 \
	  > bin/dist-coord.log 2>&1 & co=$$!; \
	./bin/sg2042d -addr 127.0.0.1:18146 > bin/dist-single.log 2>&1 & si=$$!; \
	trap 'kill $$w1 $$w2 $$co $$si 2>/dev/null || true' EXIT; \
	for port in 18143 18144 18145 18146; do \
	  for i in $$(seq 1 20); do \
	    curl -sf http://127.0.0.1:$$port/healthz > /dev/null && break; \
	    sleep 0.25; \
	    if [ $$i = 20 ]; then echo "daemon on $$port never came up"; exit 1; fi; \
	  done; \
	done; \
	curl -sf --data-binary @examples/campaign/spec.json \
	  http://127.0.0.1:18146/v1/campaign > bin/dist-local.txt; \
	curl -sf --data-binary @examples/campaign/spec.json \
	  http://127.0.0.1:18145/v1/campaign > bin/dist-sharded.txt; \
	cmp bin/dist-local.txt bin/dist-sharded.txt; \
	kill $$w1; wait $$w1 2>/dev/null || true; \
	curl -sf --data-binary @examples/scaling/campaign.json \
	  http://127.0.0.1:18146/v1/campaign > bin/dist-local-degraded.txt; \
	curl -sf --data-binary @examples/scaling/campaign.json \
	  http://127.0.0.1:18145/v1/campaign > bin/dist-sharded-degraded.txt; \
	cmp bin/dist-local-degraded.txt bin/dist-sharded-degraded.txt; \
	echo "determinism-dist OK: sharded == single-process, with and without a dead worker"

# The self-healing chaos gate, in two layers. First the fault-injection
# and replica suites under the race detector, swept over three fault
# schedules (FABRIC_FAULT_SEED picks the victims and frames). Then the
# real binary: a three-worker fleet behind a -replicas 2 coordinator
# with a fast prober; worker 1 is killed (campaign must stay
# byte-identical to a single process), restarted on its old port
# (prober revives it, peers snapshot-warm it — all visible in the
# coordinator's /metrics and in the worker's own request counters), and
# finally left as the sole survivor serving an entire campaign alone
# under degraded quorum. Every phase uses a distinct spec so the
# coordinator's render cache never replays a previous phase's bytes.
determinism-chaos:
	@mkdir -p bin
	@set -e; for seed in 1 42 1337; do \
	  echo "== fault schedule seed $$seed =="; \
	  FABRIC_FAULT_SEED=$$seed $(GO) test -race -count=1 ./internal/fabric/... ./internal/serve; \
	done
	$(GO) build -o bin/sg2042d ./cmd/sg2042d
	@set -e; \
	./bin/sg2042d -addr 127.0.0.1:18153 -worker > bin/chaos-w1.log 2>&1 & w1=$$!; \
	./bin/sg2042d -addr 127.0.0.1:18154 -worker > bin/chaos-w2.log 2>&1 & w2=$$!; \
	./bin/sg2042d -addr 127.0.0.1:18155 -worker > bin/chaos-w3.log 2>&1 & w3=$$!; \
	./bin/sg2042d -addr 127.0.0.1:18156 \
	  -coordinate http://127.0.0.1:18153,http://127.0.0.1:18154,http://127.0.0.1:18155 \
	  -replicas 2 -probe-interval 100ms -probe-timeout 1s -probe-backoff 500ms \
	  > bin/chaos-coord.log 2>&1 & co=$$!; \
	./bin/sg2042d -addr 127.0.0.1:18157 > bin/chaos-single.log 2>&1 & si=$$!; \
	trap 'kill $$w1 $$w2 $$w3 $$co $$si 2>/dev/null || true' EXIT; \
	for port in 18153 18154 18155 18156 18157; do \
	  for i in $$(seq 1 40); do \
	    curl -sf http://127.0.0.1:$$port/healthz > /dev/null && break; \
	    sleep 0.25; \
	    if [ $$i = 40 ]; then echo "daemon on $$port never came up"; exit 1; fi; \
	  done; \
	done; \
	metric() { curl -s http://127.0.0.1:$$1/metrics | awk -v m="$$2" 'index($$0, m) == 1 { print $$NF; exit }'; }; \
	waitmetric() { \
	  for i in $$(seq 1 100); do \
	    v=$$(metric $$1 "$$2"); [ -n "$$v" ] && [ "$$v" -ge "$$3" ] && return 0; \
	    sleep 0.2; \
	  done; \
	  echo "timed out waiting for $$2 >= $$3 on :$$1 (last: $$v)"; return 1; \
	}; \
	diffphase() { \
	  curl -sf --data-binary @$$1 http://127.0.0.1:18157/v1/campaign > bin/chaos-local-$$2.txt; \
	  curl -sf --data-binary @$$1 http://127.0.0.1:18156/v1/campaign > bin/chaos-fleet-$$2.txt; \
	  cmp bin/chaos-local-$$2.txt bin/chaos-fleet-$$2.txt; \
	}; \
	echo "phase 1: full replicated fleet"; \
	diffphase examples/campaign/spec.json full; \
	echo "phase 2: worker 1 killed"; \
	kill $$w1; wait $$w1 2>/dev/null || true; \
	waitmetric 18156 sg2042d_fabric_probe_deaths_total 1; \
	diffphase examples/scaling/campaign.json degraded; \
	echo "phase 3: worker 1 restarted on its old port"; \
	./bin/sg2042d -addr 127.0.0.1:18153 -worker > bin/chaos-w1b.log 2>&1 & w1=$$!; \
	waitmetric 18156 sg2042d_fabric_probe_revivals_total 1; \
	waitmetric 18156 sg2042d_fabric_warm_joins_total 1; \
	diffphase examples/chaos/rejoin.json rejoined; \
	waitmetric 18153 'sg2042d_requests_total{endpoint="fabric-warm"}' 1; \
	waitmetric 18153 'sg2042d_requests_total{endpoint="fabric-healthz"}' 1; \
	echo "phase 4: restarted worker as sole survivor (degraded quorum)"; \
	kill $$w2 $$w3; wait $$w2 $$w3 2>/dev/null || true; \
	waitmetric 18156 sg2042d_fabric_probe_deaths_total 3; \
	diffphase examples/chaos/solo.json solo; \
	waitmetric 18153 'sg2042d_requests_total{endpoint="fabric-points"}' 1; \
	q=$$(metric 18156 sg2042d_fabric_quarantines_total); \
	if [ "$$q" != "0" ]; then echo "honest fleet was quarantined ($$q)"; exit 1; fi; \
	echo "determinism-chaos OK: kill/restart/rejoin and solo-survivor phases all byte-identical, rejoined worker served again, no spurious quarantine"

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

# Build sg2042d and smoke-test it: start the daemon, hit one experiment
# endpoint through the example client, then shut the daemon down.
serve:
	$(GO) build -o bin/sg2042d ./cmd/sg2042d
	@set -e; \
	./bin/sg2042d -addr $(SERVE_ADDR) -parallel 4 > bin/sg2042d.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in 1 2 3 4 5 6 7 8 9 10; do \
	  $(GO) run ./examples/serveclient -addr $(SERVE_ADDR) -exp table4 > bin/smoke.log 2>&1 && break; \
	  sleep 0.5; \
	  if [ $$i = 10 ]; then \
	    echo "sg2042d smoke test FAILED; client output:"; cat bin/smoke.log; \
	    echo "daemon log:"; cat bin/sg2042d.log; exit 1; \
	  fi; \
	done; \
	echo "sg2042d smoke test OK on $(SERVE_ADDR)"

# Everything the CI workflow runs, reproducible in one local command:
# tier-1 verify, doc references, the race detector, the riscv64
# cross-build, the byte-level determinism checks (single-process,
# distributed, and the self-healing chaos phases), the daemon smoke
# test, the fuzzer smoke pass and both regression gates (engine
# benchmarks and the serving SLO).
ci: verify doccheck perfbench race cross determinism determinism-dist determinism-chaos serve fuzz-smoke bench-compare bench-http
	@echo "ci OK"
