# Verify path for the DNS-over-Encryption measurement repo.
#
# `make verify` is what CI runs and what a PR must keep green: build, vet,
# the custom static-analysis suite (cmd/doelint), the test suite, and the
# race detector over the concurrency-heavy packages. The doelint gate also
# runs inside `go test ./...` (internal/lint.TestRepositoryIsClean), so
# plain tier-1 testing cannot drift from the lint suite.

GO ?= go

# Every internal package runs under the race detector. The suite was once a
# hand-curated list of the concurrency-heavy packages; new packages kept
# missing it, so the pattern is now the whole tree and the curation cost is
# paid in CI minutes instead of coverage gaps. The sweep runs -short: the
# full-scale determinism matrices it skips are value checks, re-run
# race-free in `make test`, and their miniature faults-off rows still run
# here; the faults chaos suite keeps its full-fat race pass below.
RACE_PKGS := ./internal/...

# Fuzz targets, as package:target pairs; fuzz-smoke runs each briefly. The
# dnswire targets are hardened against panics, so a codec regression that
# panics on malformed wire input fails the gate, and FuzzParseMessage
# requires every re-encode to be exact-length (cap == len), equal to
# AppendPack's bytes after a prefix and untouched by the next Pack, which
# reuses the same pooled scratch; doh's feed hostile server
# bytes to the client's HTTP/1.1 and h2 readers, and hostile client bytes to
# the server's HTTP/1.1 and h2 loops (which must also keep their request
# bounds), whole and in short reads; proxy's feed hostile peer bytes to both
# sides of the SOCKS5 handshake, whole, one byte per segment and in halves;
# netsim's checks that the lazily seeded per-flow source draws exactly what
# math/rand would; netflow's checks that the v5 decoder accepts exactly the
# well-formed datagrams, that re-exporting what it decodes is a fixpoint,
# and that it appends to a non-empty slice without touching what is there;
# dnscrypt's check that the certificate parser accepts exactly the
# es-version 1 certs whose signature verifies and whose validity window
# holds the study's reference time, that the server answers every
# encrypted query it accepts with a box that opens under the query's key to
# the query's ID, and that the client accepts only replies that carry its
# query's ID, from hostile bytes at the box open or inside it; doq's feeds
# hostile datagrams to the DoQ server, seeded with a real session's
# Initial, 0-RTT and short-header packets, and requires every response it
# sends to parse as a QUIC header and well-formed frames. Minimizing an
# input that found new coverage is capped at 1 s, so each target spends its
# budget fuzzing rather than shrinking inputs.
FUZZ_TARGETS := \
	./internal/dnswire:FuzzParseMessage \
	./internal/dnswire:FuzzParseName \
	./internal/dnswire:FuzzRData \
	./internal/dnswire:FuzzAppendTCP \
	./internal/dnswire:FuzzDoQFrame \
	./internal/dnswire:FuzzQUICVarint \
	./internal/doh:FuzzH1ReadReply \
	./internal/doh:FuzzH2ReadReply \
	./internal/doh:FuzzServeH1 \
	./internal/doh:FuzzServeH2 \
	./internal/proxy:FuzzSOCKS5Server \
	./internal/proxy:FuzzSOCKS5Client \
	./internal/netsim:FuzzSourceMatchesMathRand \
	./internal/netflow:FuzzAppendV5 \
	./internal/dnscrypt:FuzzParseCert \
	./internal/dnscrypt:FuzzServeEncrypted \
	./internal/dnscrypt:FuzzClientReply \
	./internal/doq:FuzzServerPacket
FUZZTIME ?= 10s

.PHONY: verify fmt build vet hostbench-vet hostbench-test lint test race bench bench-smoke fuzz-smoke trace-smoke examples-smoke matrix-under-load

verify: fmt build vet hostbench-vet hostbench-test lint test race bench bench-smoke fuzz-smoke trace-smoke examples-smoke

# gofmt over tracked files only, so build output such as .bench_build/ is
# never scanned.
fmt:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# hostbench is a nested module, so the root ./... never compiles it: a
# change to an API it calls would break the benchmark with build and vet
# still green. Type-check it on its own.
hostbench-vet:
	$(GO) -C hostbench vet ./...

# vet only type-checks hostbench. Its own tests run the frozen probes (one
# of them dials DoT through dot.Client.Dial), the layer-table check and
# every workload's output checks at smoke size.
hostbench-test:
	$(GO) -C hostbench test ./...

# The interprocedural suite fails on any finding (a justified
# //doelint:allow directive is the one exception — see DESIGN.md §10) and
# writes a SARIF log for CI annotation. TestRepositoryIsClean additionally
# asserts the full-module run stays under its 5s budget.
DOELINT_SARIF ?= /tmp/doelint.sarif

lint:
	$(GO) run ./cmd/doelint -sarif $(DOELINT_SARIF) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 -short -timeout 15m $(RACE_PKGS)
	$(GO) test -race -count=1 ./internal/faults

# One iteration of every root benchmark — DESIGN §4's per-experiment
# targets and §5's ablations, the worker-count ablation among them: proves
# each executes end to end. Speedup itself is hardware-dependent (bounded by
# GOMAXPROCS) and is read off full -benchtime runs, not this smoke pass.
# The layer benchmarks for the per-dial path (geo lookup, censor verdict,
# one connection's life, per-flow RNG seeding), for the relay path (one
# proxied tunnel's life), for chain verification (a trust-store miss and
# hit) and for the recursive resolver (one cache miss to a zone over UDP)
# run once here too; hostbench's probes measure those layers in the study.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x .
	$(GO) test -run=NONE -bench='BenchmarkGeoLookup|BenchmarkCensorDecide|BenchmarkConnPair|BenchmarkNewSource|BenchmarkTunnel|BenchmarkVerifyChain|BenchmarkResolverMiss' -benchtime=1x ./internal/geo ./internal/netsim ./internal/proxy ./internal/certs ./internal/dnsserver

# One iteration of the curated perf set through cmd/doebench: proves the
# harness parses every benchmark it tracks. Real measurements and the
# allocs/op trajectory diff (-prev BENCH_<n>.json) run full -benchtime in
# the CI bench job; one-iteration counts are too noisy to diff.
bench:
	$(GO) run ./cmd/doebench -smoke

fuzz-smoke:
	@for pair in $(FUZZ_TARGETS); do \
		pkg=$${pair%%:*}; target=$${pair##*:}; \
		echo "fuzz $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s || exit 1; \
	done

# The worker-count matrix on a CPU-starved host. DESIGN.md §6: the
# scheduling flakes it guards against reproduced only under load, so the
# byte-identity test runs beside two shell busy loops, which the trap stops
# however the test exits.
matrix-under-load:
	@trap 'kill $$busy1 $$busy2 2>/dev/null; wait' EXIT; \
	while :; do :; done & busy1=$$!; \
	while :; do :; done & busy2=$$!; \
	$(GO) test -count=1 -run TestReportByteIdenticalAcrossWorkerCounts ./internal/core

# Telemetry end-to-end gate: run the miniature study with tracing on,
# validate the JSONL schema with doetrace, and byte-compare the trace
# against the pinned golden. Catches both schema drift and any change
# that silently reorders or reshapes the span tree.
TRACE_SMOKE_OUT ?= /tmp/doe-trace-smoke.jsonl

trace-smoke:
	$(GO) run ./cmd/doereport -small -trace $(TRACE_SMOKE_OUT) -o /dev/null
	$(GO) run ./cmd/doetrace $(TRACE_SMOKE_OUT)
	$(GO) run ./cmd/doetrace -diff internal/core/testdata/trace_small.jsonl $(TRACE_SMOKE_OUT)

# Run every example once. `go build ./...` compiles them but never runs
# them, so an example that builds and then fails (a log.Fatal on a changed
# API contract) would pass every other gate. Each must exit 0.
examples-smoke:
	@for ex in $(patsubst %/,%,$(sort $(wildcard examples/*/))); do \
		echo "example $$ex"; \
		$(GO) run ./$$ex > /dev/null || exit 1; \
	done
