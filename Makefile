# Convenience targets; everything is plain `go` underneath.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test vet fmt-check doc-check tanh-exhaustive race fuzz-smoke chaos-smoke seu-smoke binhd-smoke tenant-smoke online-smoke bench bench-serve bench-binhd bench-e2e experiments examples clean

all: vet test

build:
	$(GO) build ./...

# Fails, listing the files, when any Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Fails, listing them, when a backticked repo path in the docs names
# nothing in the tree. A `:line` or `#anchor` suffix is ignored; brace
# globs (`a/{b,c}.go`) and package-qualified symbols
# (`internal/pkg.Symbol`) are skipped.
DOCS := README.md DESIGN.md EXPERIMENTS.md docs/*.md
doc-check:
	@out=$$(grep -oh '`\(internal\|examples\|cmd\|tools\|docs\|hdcbench\)/[^` ]*' $(DOCS) | tr -d '`' | sort -u | \
		while read -r p; do \
			case "$$p" in *'{'*|*.[A-Z]*) continue;; esac; \
			[ -e "$${p%%[:#]*}" ] || echo "$$p"; \
		done); \
	if [ -n "$$out" ]; then echo "docs name missing paths:"; echo "$$out"; exit 1; fi

# go vet runs every enabled-by-default analyzer; shadowcheck covers the
# builtin-shadowing class (`cap := ...`) vet has no default analyzer for.
# govulncheck scans for known-vulnerable dependency paths when the tool is
# installed; it is gated so offline checkouts still vet cleanly.
vet: fmt-check doc-check
	$(GO) vet ./...
	$(GO) run ./tools/shadowcheck .
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping vulnerability scan"; \
	fi

# The serving runtime is concurrency-heavy, so its package always runs
# under the race detector even when the full -race pass is trimmed; the
# backend conformance suite rides along so every execution backend keeps
# its contract under the race detector too. The benchmark harness is a
# nested module that `./...` cannot see, so it is vetted and tested on its
# own: an internal API change must not break it silently.
test: fmt-check doc-check
	$(GO) vet ./...
	$(GO) run ./tools/shadowcheck .
	$(GO) test ./...
	cd hdcbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race ./internal/serve/... ./internal/backend/...
	$(GO) test -race ./...
	@$(MAKE) chaos-smoke
	@$(MAKE) seu-smoke
	@$(MAKE) binhd-smoke
	@$(MAKE) tenant-smoke
	@$(MAKE) online-smoke
	@$(MAKE) fuzz-smoke

race:
	$(GO) test -race ./...

# The host tanh kernel against its reference, float32(math.Tanh(x)), bit
# for bit on all 2^32 float32 inputs. Too slow for every `make test`
# (about a minute on two cores); `make test` runs a strided sweep.
tanh-exhaustive:
	$(GO) test -count=1 -tags tanhexhaustive -run '^TestTanhSliceExhaustive$$' -timeout 60m -v ./internal/tensor/

# A short seeded chaos scenario under the race detector: the router's
# failover/hedging/drain machinery racing injected node failures. Fast
# enough to run on every `make test`.
chaos-smoke:
	$(GO) test -race -count=1 \
		-run 'TestRouterDrainRacesChaosHang|TestRouterHedgeAccountingUnderLoad|TestRouterFleetFailoverServesThroughCrash|TestChaosRateIsSeededDeterministic' \
		./internal/router/

# A short seeded SEU scenario under the race detector: workers serving
# through a bit-flip storm while the integrity layer scrubs, runs canaries,
# and walks the repair ladder concurrently with drains. Fast enough to run
# on every `make test`.
seu-smoke:
	$(GO) test -race -count=1 \
		-run 'TestServeIntegrityScrubRepairsSEU|TestServeIntegrityCanaryQuarantinesUnrepairable|TestServeDrainDuringCanaryBackoffSettles|TestServeIntegrityDisabledBitIdentical' \
		./internal/serve/

# The bit-packed binary-HDC backend under the race detector: its kernel and
# pricing tests, its rows in the backend conformance suite, and the seeded
# mixed tpu+bin fleet scenarios. Fast enough to run on every `make test`.
binhd-smoke:
	$(GO) test -race -count=1 ./internal/backend/binhd/
	$(GO) test -race -count=1 -run 'BinHD' ./internal/backend/conformance/
	$(GO) test -race -count=1 \
		-run 'TestParseFleetBin|TestBinFleetRequiresBipolar|TestServeMixedBinFleet|TestServeBinBatched|TestServeBinOnlyFleetNeedsNoAccel' \
		./internal/serve/

# The multi-tenant/multi-model serving layer under the race detector: the
# weighted-fair scheduler's share and priority math, tenant quota sheds and
# snapshot monotonicity under concurrent load, registry dispatch with swap
# billing, hot swap, and the determinism of LRU eviction (two identical
# runs must produce identical event logs), and a single-model server whose
# model is wider than device memory, which the registry must not bill a
# re-setup on top of the device's own weight streaming. Fast enough for every
# `make test`.
tenant-smoke:
	$(GO) test -race -count=1 \
		-run 'TestSchedulerWeightedFairShares|TestSchedulerStrictPriority|TestServeTenantQuotaShed|TestServeTenantSnapshotMonotone|TestServeMultiModelDispatchAndSwapBilling|TestServeHotSwapInvalidatesBind|TestServeEvictionDeterministic|TestServeRegistrySingleModelBitIdentical' \
		./internal/serve/
	$(GO) test -race -count=1 -run 'TestRegisterNonResidentModelBillsBlobOnly' ./internal/registry/

# The online-learning loop under the race detector: the feedback trainer's
# full package (snapshot publication, drift-triggered regeneration, the
# trainer racing live serving, nil-trainer bit-identity), plus the atomic
# swap-publication and bind-during-swap-storm hammers the trainer's
# registry.Swap path leans on. Fast enough to run on every `make test`.
online-smoke:
	$(GO) test -race -count=1 ./internal/online/
	$(GO) test -race -count=1 -run 'TestSwapPublicationAtomicUnderReaders|TestSwapBumpsVersionAndInvalidatesResidency' \
		./internal/registry/
	$(GO) test -race -count=1 -run 'TestServeBindDuringSwapStorm|TestServeHotSwapInvalidatesBind' \
		./internal/serve/

# A short fuzzing pass over every Fuzz target in the tree (FUZZTIME each),
# as a smoke test; saved counterexamples under testdata/fuzz run in `test`.
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		for t in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "=== fuzz $$pkg $$t"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# One pass over every paper artifact via the benchmark harness.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Measure the micro-batched serving invoke (plus a heterogeneous-fleet
# throughput row) and refresh BENCH_serve.json.
bench-serve:
	BENCH_SERVE_OUT=$(CURDIR)/BENCH_serve.json $(GO) test -run TestWriteServeBench -count=1 ./internal/serve/
	@cat BENCH_serve.json

# Refresh only the binhd section of BENCH_serve.json: int8 interpreter vs
# bit-packed binary HDC at matched shape, full-batch invokes.
bench-binhd:
	BENCH_BINHD_OUT=$(CURDIR)/BENCH_serve.json $(GO) test -run TestWriteBinHDBench -count=1 ./internal/serve/
	@cat BENCH_serve.json

# The end-to-end benchmark declared in BENCHMARK.json: every workload,
# built from source into .bench_build, one JSON report per workload.
bench-e2e:
	bash hdcbench/run.sh --workload all

# Render every table/figure (and extension study) as text.
experiments:
	$(GO) run ./cmd/hdc-bench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/activity
	$(GO) run ./examples/speech
	$(GO) run ./examples/baggingsweep
	$(GO) run ./examples/streaming

clean:
	$(GO) clean ./...
