GO ?= go

.PHONY: check ci cover fmt fmt-check lint vet build test test-short test-race test-race-short alloc-guard fuzz-short e2e-dispatch loadgen-smoke bench bench-json bench-eval bench-dispatch bench-wire bench-serve serve

check: fmt-check vet lint build test-short

# ci is the full pre-merge gate: formatting, vet, the project-invariant
# lint suite (before the test stages, so invariant breaks fail fast),
# the short suite, the short suite under the race detector, the
# allocation guards (the zero-alloc train/eval steps plus the
# whole-run allocation budget), the wire-codec fuzz smoke, the
# dispatch e2e suite under -race, and the coverage report with its
# floor.
ci: fmt-check vet lint test-short test-race-short alloc-guard fuzz-short e2e-dispatch loadgen-smoke cover

# lint runs hadfl-lint, the repo's own analyzer suite (internal/lint):
# detmap, walltime, poolleaf, metriccatalog, ctxbg — the determinism,
# concurrency, and telemetry contracts as machine-checked gates. See
# DESIGN.md "Static analysis"; suppress a finding at the site with
# `//lint:ignore <analyzer> <reason>`.
lint:
	$(GO) run ./cmd/hadfl-lint ./...

# COVER_FLOOR is the minimum total statement coverage (percent) the
# short suite must keep; make ci fails below it instead of letting
# coverage drift silently. Current total is ~77.7%.
COVER_FLOOR ?= 75.0

# cover runs the short suite with coverage, prints the total, and
# enforces COVER_FLOOR; coverage.out is left behind for
# `go tool cover -html=coverage.out`.
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$NF}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { if (t+0 < f+0) { print "coverage " t "% is below the " f "% floor"; exit 1 } }'

# fuzz-short runs each p2p wire-codec fuzz target for a few seconds —
# not a soak, a smoke: decoder panics and round-trip breaks on easy
# inputs fail the gate. (go's -fuzz takes one target per invocation.)
FUZZTIME ?= 5s
fuzz-short:
	$(GO) test ./internal/p2p -run '^$$' -fuzz 'FuzzUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/p2p -run '^$$' -fuzz 'FuzzDispatchBody$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/p2p -run '^$$' -fuzz 'FuzzChunkReassembly$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/p2p -run '^$$' -fuzz 'FuzzCodecDecode$$' -fuzztime $(FUZZTIME)

# e2e-dispatch is the remote-execution acceptance gate: the simnet
# end-to-end suite (byte-identical dispatched results, cancel and
# worker-crash fault injection, heartbeat loss, local fallback) under
# the race detector. -short trims the saturation and full-registry
# sweeps; `go test ./internal/serve/dispatch` runs everything.
e2e-dispatch:
	$(GO) test -race -short ./internal/serve/dispatch

# alloc-guard pins the hot-path allocation contracts explicitly (they
# also run inside test-short; this target is the named gate so a perf
# regression fails loudly on its own line).
alloc-guard:
	$(GO) test -run 'ZeroAlloc' ./internal/nn ./internal/eval ./internal/serve
	$(GO) test -run 'TestRunAllocationBudget' .

# loadgen-smoke is the serving-layer acceptance gate inside make ci: a
# ~2s in-process hadfl-loadgen run (self-hosted synthetic server) that
# fails on any harness-level error or missing request class. The full
# snapshot is `make bench-serve`.
loadgen-smoke:
	$(GO) run ./cmd/hadfl-loadgen -duration 2s -concurrency 16 -corpus 8 \
		-run-cost 500us -curve-points 8 -fail-on-errors -out /dev/null

fmt: fmt-check

# -s also demands the simplified forms (x[a:len(x)] → x[a:], redundant
# composite-literal types, ...), so simplifiable code fails the gate.
fmt-check:
	@out="$$(gofmt -s -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test-short:
	$(GO) test -short ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# test-race runs the fixed-seed parallel-determinism contract (and the
# kernel bit-determinism tests) under the race detector.
test-race:
	$(GO) test -race -run 'TestParallelDeterminism' .
	$(GO) test -race ./internal/tensor ./internal/core ./internal/baselines

# test-race-short is the race-detector slice of make ci: the
# determinism contract plus the concurrency-heavy packages, with slow
# tests skipped.
test-race-short:
	$(GO) test -race -short -run 'TestParallelDeterminism|TestRunContext|TestCompareContext' .
	$(GO) test -race -short ./internal/tensor ./internal/core ./internal/baselines ./internal/serve

# bench-json snapshots the compute-core benchmarks (tensor kernels, nn
# training steps, the end-to-end HADFL round) into BENCH_compute.json
# so the perf trajectory is recorded; diff it across PRs.
# Each step is its own recipe line so any bench failure aborts before
# the old snapshot is replaced.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/tensor ./internal/nn > BENCH_compute.txt.tmp
	$(GO) test -run '^$$' -bench 'BenchmarkHADFLRound' -benchtime 3x -benchmem . >> BENCH_compute.txt.tmp
	$(GO) run ./cmd/hadfl-benchjson < BENCH_compute.txt.tmp > BENCH_compute.json.tmp
	rm BENCH_compute.txt.tmp
	mv BENCH_compute.json.tmp BENCH_compute.json
	@echo wrote BENCH_compute.json

# bench-dispatch snapshots the remote-execution overhead (the same
# tiny run through the local registry vs the full simnet dispatch
# round trip) into BENCH_dispatch.json; the gap between the two
# benchmarks is the protocol's per-job cost.
bench-dispatch:
	$(GO) test -run '^$$' -bench 'BenchmarkDispatch' -benchtime 5x -benchmem ./internal/serve/dispatch > BENCH_dispatch.txt.tmp
	$(GO) run ./cmd/hadfl-benchjson -note 'dispatch-overhead benchmark snapshot (local registry vs simnet dispatch of one tiny run); regenerate with `make bench-dispatch`' < BENCH_dispatch.txt.tmp > BENCH_dispatch.json.tmp
	rm BENCH_dispatch.txt.tmp
	mv BENCH_dispatch.json.tmp BENCH_dispatch.json
	@echo wrote BENCH_dispatch.json

# bench-wire snapshots bytes-on-wire per parameter codec for one
# reference job (the tiny benchmark run's trained vector, encoded
# against its initial model) into BENCH_wire.json; the wire-B/raw-B
# metrics per codec row are the compression trajectory.
bench-wire:
	$(GO) test -run '^$$' -bench 'BenchmarkWireCodec' -benchtime 5x -benchmem ./internal/serve/dispatch > BENCH_wire.txt.tmp
	$(GO) run ./cmd/hadfl-benchjson -note 'wire-codec benchmark snapshot (bytes on the dispatch wire per parameter codec for one tiny reference job); regenerate with `make bench-wire`' < BENCH_wire.txt.tmp > BENCH_wire.json.tmp
	rm BENCH_wire.txt.tmp
	mv BENCH_wire.json.tmp BENCH_wire.json
	@echo wrote BENCH_wire.json

# bench-eval snapshots the evaluation-engine trajectory (engine vs the
# legacy double-forward path: evals/sec and allocs per evaluation) into
# BENCH_eval.json; diff it across PRs like BENCH_compute.json.
bench-eval:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluate' -benchmem ./internal/eval > BENCH_eval.txt.tmp
	$(GO) run ./cmd/hadfl-benchjson -note 'evaluation-engine benchmark snapshot; regenerate with `make bench-eval`' < BENCH_eval.txt.tmp > BENCH_eval.json.tmp
	rm BENCH_eval.txt.tmp
	mv BENCH_eval.json.tmp BENCH_eval.json
	@echo wrote BENCH_eval.json

# bench-serve snapshots the serving layer's traffic-shaped throughput:
# hadfl-loadgen drives an in-process synthetic hadfl-serve with the
# default mixed workload (cache hits, fresh runs, coalescing dups,
# polls, curves, SSE, cancels) and writes per-class latency percentiles
# + throughput into BENCH_serve.json; diff it across PRs like the other
# BENCH files. Point it at a live deployment with
# `go run ./cmd/hadfl-loadgen -addr http://host:8080`.
bench-serve:
	$(GO) run ./cmd/hadfl-loadgen -duration 10s -concurrency 64 \
		-out BENCH_serve.json.tmp
	mv BENCH_serve.json.tmp BENCH_serve.json
	@echo wrote BENCH_serve.json

serve:
	$(GO) run ./cmd/hadfl-serve -addr :8080
