# Developer entry points. `make check` is the full gate the serving
# subsystem is held to: vet, build, and the whole suite under the race
# detector (the scan server is aggressively concurrent). CI runs check,
# lint, fuzz (30s smoke on PRs, longer nightly) and, on pull requests, the
# perf gate (perf-bench on the merge base and the head, then perf-gate).

GO ?= go
FUZZTIME ?= 30s

# Perf-gate settings. The gated subset is the hot-path suite (the parallel
# data path with and without the sketch chain on the friendly column, the
# same path over the wide-domain column, the served scan over loopback TCP,
# the Table 1 binner cases, and the binner's per-row loop on three columns);
# the iteration budget and scheduler width are pinned so a base run and a
# head run on the same machine are comparable, and benchdiff collapses the 5
# repeats to a per-metric median. PERF_DIR is the checkout benchmarked, so
# one recipe measures both sides of a comparison.
PERF_BENCH ?= BenchmarkParallelDataPathSketch|BenchmarkParallelDataPathWide|BenchmarkServedScan|BenchmarkTable1Binner|BenchmarkBinnerPush
PERF_BENCHTIME ?= 2s
PERF_COUNT ?= 5
PERF_GOMAXPROCS ?= 4
PERF_DIR ?= .
PERF_OUT ?= perf_head.txt
PERF_BASE ?= perf_base.txt
PERF_HEAD ?= perf_head.txt

.PHONY: check vet build test race fuzz bench perf-bench perf-gate lint chaos-durable loc knobs surface examples

check: vet build race

# The nested benchmark module is frozen between benchmark PRs and compiles
# against internal/server, internal/client and friends: vet, build and test it
# here so a change to those packages that breaks the benchmark of record fails
# check. Its few-second smoke test is the only thing that notices a change
# which still compiles against the benchmark's reads but stops yielding what
# it reads (the server.span_* layers come out of Obs().Tracer().Recent).
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

build:
	$(GO) build ./...
	$(GO) build -C benchmark -o /dev/null ./...

test:
	$(GO) test ./...
	$(GO) test -C benchmark ./...

race:
	$(GO) test -race ./...
	$(GO) test -C benchmark ./...

# loc prints the number the ROADMAP tracks: non-test Go lines outside the
# nested benchmark module.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l

# knobs prints the configuration surface the ROADMAP tracks beside loc:
# exported settable fields of the served configuration structs plus the
# parameters of the timeline's constructor, then the flags of
# `histserved serve` and of histcli and its subcommands, read from their
# -h output.
KNOB_STRUCTS = internal/server/server.go:Config internal/stream/parallel.go:ParallelDataPath \
	internal/durable/manager.go:Options internal/obs/obs.go:Obs
KNOB_FLAGS = "histserved serve" histcli "histcli metrics" "histcli profile" "histcli top" "histcli trace"
knobs:
	@fields=0; for s in $(KNOB_STRUCTS); do \
		n=$$(awk -v t="$${s#*:}" '$$0 ~ "^type " t " struct" { in_ = 1; next } \
			in_ && /^}/ { in_ = 0 } \
			in_ && /^\t[A-Z]/ { for (i = 1; i <= NF && $$i ~ /,$$/; i++) n++; n++ } \
			END { print n + 0 }' "$${s%%:*}"); \
		fields=$$((fields + n)); \
	done; \
	n=$$(sed -n 's/^func New(\(.*\)) \*Timeline.*/\1/p' internal/obs/timeline/timeline.go | tr ',' '\n' | grep -c .); \
	fields=$$((fields + n)); \
	flags=0; for cmd in $(KNOB_FLAGS); do \
		n=$$($(GO) run ./cmd/$$cmd -h 2>&1 | grep -c '^  -'); \
		flags=$$((flags + n)); \
	done; \
	echo "config fields $$fields, flags $$flags, knobs $$((fields + flags))"

# surface runs the reachability ratchet alone and prints the size of its
# golden: every internal/ declaration no program reaches must be listed in
# testdata/unreachable.golden with a reason, and the log line counts the
# entries per reason class.
surface:
	$(GO) test -run '^TestNoUnreachableCode$$' -v .

# examples builds and runs every program under examples/, so one that still
# compiles but no longer runs to completion fails here.
examples:
	@for dir in examples/*/; do \
		echo "$(GO) run ./$$dir"; \
		$(GO) run ./$$dir > /dev/null || exit 1; \
	done

# Fuzz passes, nine targets: every decoder that faces bytes from a peer or a
# disk (frames, the client's frame reader, trace reports, histograms,
# checkpoint recovery, WAL records, sketches, the page parser), and the bin
# region's 32-bit store against an int64 reference.
# FUZZTIME=30s is the CI smoke setting; the nightly job raises it. Every
# target runs even when an earlier one fails — a red target must not hide the
# ones listed after it — and the failures are named together at the end.
FUZZ_TARGETS = \
	FuzzDecodeFrame:./internal/server/ \
	FuzzFrameReader:./internal/server/ \
	FuzzTraceReport:./internal/server/ \
	FuzzHistogramUnmarshal:./internal/hist/ \
	FuzzCheckpointRecovery:./internal/durable/ \
	FuzzDecodeWALRecord:./internal/durable/ \
	FuzzSketchDecode:./internal/sketch/ \
	FuzzParserFeed:./internal/core/ \
	FuzzVectorOps:./internal/bins/

fuzz:
	@failed=""; \
	for target in $(FUZZ_TARGETS); do \
		name=$${target%%:*}; pkg=$${target#*:}; \
		echo "$(GO) test -run=^$$ -fuzz=$$name -fuzztime=$(FUZZTIME) $$pkg"; \
		$(GO) test -run='^$$' -fuzz=$$name -fuzztime=$(FUZZTIME) $$pkg || failed="$$failed $$name"; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz: FAILED:$$failed"; exit 1; fi

# chaos-durable is the crash-recovery chaos gate: the in-process prefix
# property (100 randomized kill points under disk-fault injection) plus the
# real kill -9 harness (child server process SIGKILLed mid-scan, restarted
# from disk, client resume must deliver a byte-identical stream). Widen with
# CHAOS_SEEDS / CRASH_SEEDS.
CHAOS_SEEDS ?= 100
CRASH_SEEDS ?= 5
chaos-durable:
	STREAMHIST_CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -run 'TestDurableChaos' ./internal/durable/ -v -timeout 20m
	STREAMHIST_CRASH_SEEDS=$(CRASH_SEEDS) $(GO) test -race -run 'TestCrash|TestServerRestart|TestServerNoDurability' ./internal/server/ -v -timeout 20m

bench:
	$(GO) test -bench=. -benchmem ./...

# perf-bench runs the gated benchmark subset of the checkout in PERF_DIR under
# pinned conditions and writes the `go test -bench` text to PERF_OUT. Run it
# twice, same machine — once with PERF_DIR set to a checkout of the merge base
# and PERF_OUT=$(PERF_BASE), once on the head — then `make perf-gate`.
perf-bench:
	GOMAXPROCS=$(PERF_GOMAXPROCS) $(GO) test -C $(PERF_DIR) -run='^$$' \
		-bench='$(PERF_BENCH)' -benchmem -benchtime=$(PERF_BENCHTIME) \
		-count=$(PERF_COUNT) -timeout=30m . | tee $(PERF_OUT)

# perf-gate fails on a >10% throughput drop or >5% allocs/op or writes/op
# growth between two perf-bench outputs (the counts are machine-independent;
# the throughput gate is sound only because both runs share one machine).
perf-gate:
	$(GO) run ./cmd/benchdiff -base $(PERF_BASE) -head $(PERF_HEAD)

# lint fails on any file gofmt would rewrite (the benchmark module included),
# then runs staticcheck when it is installed (CI installs it; locally it is
# optional because the repo builds with the stdlib toolchain alone).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
