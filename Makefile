GO ?= go

EXAMPLES := $(wildcard examples/*)

.PHONY: check build vet test race fuzz bench examples coverage serve serve-smoke stream-smoke loadtest

# The full gate: what CI (and a careful human) runs before merging.
check: build vet test race examples

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Component benchmarks, repeated for benchstat. Writes benchstat-compatible
# text plus parsed JSON under bench/BENCH_<git-sha>.{txt,json}; pass
# BENCH_LABEL / BENCH_PATTERN / BENCH_COUNT to override (see scripts/bench.sh).
bench:
	./scripts/bench.sh $(BENCH_LABEL)

# Short fuzz passes: the CSV ingestion round-trip properties, the
# columnar container reader (truncated/corrupt/version-skewed inputs
# must fail closed, never panic or silently drop rows), the typed
# SortByStart of logs and columnar tables (must equal the old stable
# sort byte for byte, and each other), the world-spec
# parser (malformed JSON / non-finite numbers must error, never panic),
# the engine-schedule differential fuzzer (the serial and sharded event
# core must stay byte-identical to the reference core, which lives only
# in the tests, under adversarial deadline ties; CI runs a 20 s pass of
# it on every push), and the serve daemon's request decoder
# (malformed bodies must 400, never panic), the log tailer (torn
# appends, rotation, truncation, and garbage mid-stream must never
# panic or emit a malformed record), and the one-pass registry and model
# decoders (each must defer to encoding/json or build exactly what it
# builds; CI runs a 20 s pass of both on every push).
fuzz:
	$(GO) test ./internal/logs -run '^$$' -fuzz FuzzReadCSV -fuzztime 30s
	$(GO) test ./internal/logs/colfmt -run '^$$' -fuzz FuzzReadColumnar -fuzztime 30s
	$(GO) test ./internal/logs/colfmt -run '^$$' -fuzz FuzzSortByStart -fuzztime 30s
	$(GO) test ./internal/simulate -run '^$$' -fuzz FuzzParseWorld -fuzztime 30s
	$(GO) test ./internal/simulate -run '^$$' -fuzz FuzzEngineSchedules -fuzztime 30s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzPredictRequest -fuzztime 30s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzCodecDifferential -fuzztime 30s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzBatchRequest -fuzztime 30s
	$(GO) test ./internal/stream -run '^$$' -fuzz FuzzTail -fuzztime 30s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzRegistryDecode -fuzztime 30s
	$(GO) test ./internal/ml/gbt -run '^$$' -fuzz FuzzModelDecode -fuzztime 30s

# Train a serving registry on the small workload and run the prediction
# daemon on it (foreground; SIGHUP reloads, SIGTERM drains). Override
# SERVE_ADDR / SERVE_REGISTRY to taste.
SERVE_ADDR ?= 127.0.0.1:8723
SERVE_REGISTRY ?= /tmp/wanperf-registry.json
serve:
	$(GO) run ./cmd/wanperf registry -small -out $(SERVE_REGISTRY)
	$(GO) run ./cmd/wanperf serve -registry $(SERVE_REGISTRY) -addr $(SERVE_ADDR)

# End-to-end daemon lifecycle smoke: build, train, boot, predict, reject
# a corrupt reload, hot-reload on SIGHUP, drain on SIGTERM.
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end online refresh smoke: tail a growing log with `wanperf
# stream`, bootstrap + gate-passed promotion hot-reload a live daemon,
# and a drifted window is rejected without moving the served generation.
stream-smoke:
	./scripts/stream-smoke.sh

# Concurrent load generation with latency percentiles against a running
# daemon (start one with `make serve`).
loadtest:
	./scripts/loadtest.sh

# Vet and compile every example program. They are plain main packages, so
# `go build ./...` already type-checks them; this target keeps them honest
# one by one and gives a readable per-example failure in CI.
examples:
	@for dir in $(EXAMPLES); do \
		echo "== $$dir"; \
		$(GO) vet ./$$dir/ || exit 1; \
		$(GO) build -o /dev/null ./$$dir/ || exit 1; \
	done

# Statement-coverage gate over the internal packages (see scripts/coverage.sh).
coverage:
	./scripts/coverage.sh
