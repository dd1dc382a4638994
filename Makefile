GO ?= go
GOFMT ?= gofmt

.PHONY: build test test-norace fmt-check lint lint-baseline check race bench bench-smoke bench-compare clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-norace runs the engine, instrumentation and simulator packages
# WITHOUT the race detector: the zero-allocation runtime gates
# (TestSearchStepDisabledZeroAlloc, TestEmitDedupeZeroAllocs,
# TestArcDelaysSteadyStateAllocs, TestSpanDisabledZeroCost,
# TestSimulateGateAllocsFlat) skip themselves under -race because its
# bookkeeping breaks AllocsPerRun accounting — a -race-only pipeline
# would never execute them.
test-norace:
	$(GO) test ./internal/core/ ./internal/obs/ ./internal/spice/

# fmt-check fails on any Go file outside vendor/ (and outside hidden
# build directories) that gofmt would rewrite, and lists them.
fmt-check:
	@files=$$(find . -name '*.go' -not -path './vendor/*' -not -path './.*' | xargs $(GOFMT) -l); \
	if [ -n "$$files" ]; then echo "gofmt -w needed on:"; echo "$$files"; exit 1; fi

# lint checks formatting (fmt-check), then runs the stock go vet
# passes plus the repository's own stalint suite (internal/analysis):
# sharedstate, exhaustive, floatcmp, obscheck, errwrap and the
# interprocedural contract analyzers noalloc and determinism. stalint standalone re-execs `go vet -vettool` on
# itself, so both layers go through the same driver; findings and
# suppressions ratchet against the committed lint.baseline, and every
# stalint directive must carry a justification (the driver's sweep
# rejects bare or malformed ones outright).
lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/stalint -baseline lint.baseline ./...

# lint-baseline regenerates the ratchet file and shows what changed.
# Run it after fixing findings (to tighten) or after accepting a new,
# justified suppression; commit the diff with the change it blesses.
lint-baseline:
	$(GO) run ./cmd/stalint -write-baseline -baseline lint.baseline ./...
	git diff --stat -- lint.baseline || true

# check is the pre-commit gate: static analysis, the non-race run of
# the zero-alloc gates, the race-sensitive packages (the
# instrumentation layer, the parallel search engine and the shared
# cell/library caches it touches) under the race detector, a
# core-count sweep of the packages whose parallel paths a 1-CPU run
# never takes, and short fuzz smokes of the Verilog parser and the
# worker-count determinism contract.
check: lint test-norace
	$(GO) test -race ./internal/obs ./internal/core ./internal/cell ./internal/charlib
	$(GO) test -cpu 1,2,4 ./internal/core ./internal/obs ./cmd/obsreport ./sta ./internal/variation
	$(GO) test -run '^$$' -fuzz '^FuzzVerilog$$' -fuzztime 10s ./internal/netlist
	$(GO) test -run '^$$' -fuzz '^FuzzParallelDeterminism$$' -fuzztime 10s ./internal/core

race:
	$(GO) test -race ./...

# bench measures the delay-kernel hot path (the batched ArcDelays query,
# plus the delay-mode K-worst search), the work-stealing scheduler
# (serial vs a four-worker stealing pool on the skewed topology, plus
# the string-free dedupe record path), the obs instrumentation
# overhead and the batch multi-corner sweep against independent
# per-corner engine runs, records the numbers as BENCH_*.json artifacts
# via cmd/benchjson, then runs the paper-table benchmarks of the root
# package once.
KERNEL_BENCH = -run '^$$' -bench 'BenchmarkArcDelays|BenchmarkKWorstDelay' -benchtime 2000x ./internal/core
STEAL_BENCH = -run '^$$' -bench 'BenchmarkWorkStealing|BenchmarkDedupeEmit' -benchtime 10x -benchmem ./internal/core
OBS_BENCH = -run '^$$' -bench 'BenchmarkObsOverhead' -benchtime 10x -benchmem ./internal/core
MULTI_BENCH = -run '^$$' -bench 'BenchmarkMultiCorner' -benchtime 300x ./internal/core
bench:
	$(GO) test $(KERNEL_BENCH) | $(GO) run ./cmd/benchjson \
		-artifact "run-specialized delay kernels" \
		-command "go test $(KERNEL_BENCH)" \
		-workload "circuit=fig4 (paper Fig. 4 sample circuit, 130nm TestGrid characterization)" \
		-workload "query=slowest enumerated path, rising launch (ArcDelays); k=5 branch-and-bound (KWorstDelay)" \
		-note "ArcDelays/batched is the production query: run-specialized (T,VDD) kernels compiled into one struct-of-arrays pool, arcs resolved to dense slots, delay lanes summed in one pass, with a reused output buffer; it must stay at 0 allocs/op. Results are bit-identical to the string-keyed 4-variable library evaluation (legacyArcDelays, the oracle of the internal/core kernel tests); only the cost is measured here. KWorstDelay is the delay-mode branch-and-bound search end to end: bound tables, pruned enumeration and path scoring." \
		-out BENCH_delay_kernels.json
	$(GO) test $(STEAL_BENCH) | $(GO) run ./cmd/benchjson \
		-artifact "work-stealing parallel search + string-free dedupe" \
		-command "go test $(STEAL_BENCH)" \
		-workload "circuit=skew (circuits.Skewed: 3 deep launch cones + 8 shallow inputs, depth-24 mixed-gate ladder, structure-only enumeration)" \
		-workload "modes=serial; stealing-w4 (four-worker work-stealing scheduler with subtree donation)" \
		-note "stealing-w4 vs serial is the scheduler figure: the three deep shards hold almost all the work, and stealing plus subtree donation is what lets a pool spread them. Its speedup is bounded by the host's CPU count (see the host block): on the recorded 2-CPU host the four-worker pool does not beat the serial search, and repeated runs put it at 0.85-1.0x of serial. BenchmarkDedupeEmit is the string-free dedupe claim: a duplicate variant reaching emit costs 0 allocs/op; the allocs column is the result, ns/op is incidental." \
		-out BENCH_work_stealing.json
	$(GO) test $(OBS_BENCH) | $(GO) run ./cmd/benchjson \
		-artifact "obs v2 instrumentation overhead on the search hot path" \
		-command "go test $(OBS_BENCH)" \
		-workload "circuit=skew (circuits.Skewed, structure-only full enumeration)" \
		-workload "modes=off (nil tracer/metrics, the production default); metrics (four step histograms: two clock reads + two atomic adds per step); sampled (JSONL tracer to io.Discard, every 64th step recorded)" \
		-note "off is the contract figure: the zero-alloc tests (TestSearchStepDisabledZeroAlloc, TestEmitDedupeZeroAllocs) pin its per-step allocation count at zero, so off-mode ns/op must track the uninstrumented PR 5 baseline. metrics and sampled are the prices of turning the dials on; their allocs/op deltas are the tracer's buffers and sampled step events, never the disabled path." \
		-out BENCH_obs_overhead.json
	$(GO) test $(MULTI_BENCH) | $(GO) run ./cmd/benchjson \
		-artifact "batch multi-corner sweep vs independent per-corner runs" \
		-command "go test $(MULTI_BENCH)" \
		-workload "circuit=fig4 (paper Fig. 4 sample circuit, 130nm corner-grid characterization: Fo x Tin x Temp x VDD)" \
		-workload "corners=slow (125C, 0.9 VDD), typical (25C, 1.0 VDD), fast (-40C, 1.1 VDD), hot-low (85C, 0.95 VDD), cool-high (0C, 1.05 VDD); full sensitization enumeration per corner, Workers=1 in both modes" \
		-note "MultiCorner/independent builds five complete engines (five full kernel-pool compilations, one per corner); MultiCorner/sweep is one MultiCorner call: one full compilation at the first corner, then per-corner coefficient re-folds into the shared pool geometry (polyfit Pool.RespecBatch, an O(surviving-ops) fused pass over corner-variant constants only). Per-corner results are byte-identical between the modes (the multi-corner differential suite pins this at any worker count) and steady-state arc scoring stays at 0 allocs/op in both (the zero-alloc gates), so ns/op is the whole story. The independent/sweep ratio is gated at >= 1.5x via -min-ratio; both modes are serial so the figure is scheduling-noise-free." \
		-min-ratio "MultiCorner/independent,MultiCorner/sweep,1.5" \
		-out BENCH_multi_corner.json
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-compare re-measures the recorded benchmark suites and fails on
# a >15% ns/op regression (or new allocations on a zero-alloc
# baseline) against the committed BENCH_*.json artifacts. CI runs it
# non-blocking: shared runners are noisy, a red job is a prompt to
# re-measure locally, not a merge gate.
bench-compare:
	$(GO) test $(KERNEL_BENCH) | $(GO) run ./cmd/benchjson -compare BENCH_delay_kernels.json
	$(GO) test $(STEAL_BENCH) | $(GO) run ./cmd/benchjson -compare BENCH_work_stealing.json
	$(GO) test $(OBS_BENCH) | $(GO) run ./cmd/benchjson -compare BENCH_obs_overhead.json
	$(GO) test $(MULTI_BENCH) | $(GO) run ./cmd/benchjson -compare BENCH_multi_corner.json -min-ratio "MultiCorner/independent,MultiCorner/sweep,1.5"

# bench-smoke compiles and runs every benchmark in the repository once —
# the CI gate that keeps benchmark code from rotting uncompiled.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

clean:
	$(GO) clean ./...
