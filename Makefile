# Development targets. `make tier1` is the PR gate: build + vet + gofmt + the
# repo's own static analyzers (cmd/darwinlint) + full test suite. `make race`
# adds the race detector on the concurrency-heavy packages and `make fuzz`
# runs short fuzzing sessions over the parsing, hashing and indexing seams.
# Numbers come from three places only: `go run ./cmd/experiments` regenerates
# the paper's tables, `make bench` prices the system, `make microbench` prices
# a function; the `chaos*` targets run one fault experiment plus its
# real-process test.

GO ?= go

.PHONY: tier1 vet fmt build test lint lint-audit race fuzz bench microbench chaos chaos-crash chaos-cluster chaos-flap

tier1: build vet fmt lint test

vet:
	$(GO) vet ./...

# fmt fails, naming the files, when gofmt would rewrite any.
fmt:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then echo "gofmt -l is not empty:"; echo "$$files"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the project's own stdlib-only static-analysis suite: determinism,
# hot-path allocation, locking, error-hygiene, context-propagation, lock-order,
# atomic-mixing, durable-IO, and goroutine-termination rules (see internal/lint and the README's "Static analysis & verification").
# The content-hash cache makes warm runs (no .go/go.mod/config change) replay
# the stored result without type-checking; timing for both paths prints to
# stderr.
lint:
	$(GO) run ./cmd/darwinlint -cache .darwinlint.cache ./...

# lint-audit additionally flags stale //lint:ignore directives that no longer
# suppress anything. Audit runs bypass the cache.
lint-audit:
	$(GO) run ./cmd/darwinlint -audit ./...

race:
	$(GO) test -race ./internal/server ./internal/node ./internal/lb ./internal/cluster ./internal/cache ./internal/par ./internal/core ./internal/exp ./internal/bloom ./internal/bandit ./internal/breaker ./internal/diskcache ./internal/persist ./internal/gossip

# fuzz runs each fuzz target briefly: URL parsing on the proxy/origin seam,
# the upstream client's response-head parser (a backend's bytes are outside
# input),
# the Bloom filter against its string-keyed oracle, the engine's id table
# against the built-in map it replaced, the hierarchy's per-object records
# against both levels' contents and the filter under random op sequences, the
# controller's batched replay against per-request serving, the durability
# decoders (persist frames, journal records/segments, checkpoint and
# neural-weight payloads) — corrupted on-disk bytes must produce typed
# errors, never panics — and darwinlint's own annotation parsers
# (//lint:ignore directives and guarded-by comments).
fuzz:
	$(GO) test ./internal/server -fuzz FuzzParseObjectURL -fuzztime 10s
	$(GO) test ./internal/server -fuzz FuzzUpstreamHead -fuzztime 10s
	$(GO) test ./internal/bloom -fuzz FuzzHashIdentity -fuzztime 10s
	$(GO) test ./internal/bloom -fuzz FuzzFilterMatchesStringOracle -fuzztime 10s
	$(GO) test ./internal/cache -fuzz FuzzIDTable -fuzztime 10s
	$(GO) test ./internal/cache -fuzz FuzzHierarchy -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzControllerPlay -fuzztime 10s
	$(GO) test ./internal/persist -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/diskcache -fuzz FuzzDecodeRecord -fuzztime 10s
	$(GO) test ./internal/diskcache -fuzz FuzzOpenSegment -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzDecodeCheckpoint -fuzztime 10s
	$(GO) test ./internal/gossip -fuzz FuzzDecodeDigest -fuzztime 10s
	$(GO) test ./internal/neural -fuzz FuzzUnmarshalNet -fuzztime 10s
	$(GO) test ./internal/lint -fuzz FuzzParseIgnoreDirective -fuzztime 10s
	$(GO) test ./internal/lint -fuzz FuzzParseGuardedBy -fuzztime 10s

# bench prices the system: the four BENCHMARK.json workloads on the deployed
# plane, medians with quartiles, per-layer self times (benchmark/README.md).
bench:
	bash benchmark/run.sh

# microbench prices single functions: every package-level Benchmark* (engine
# serve per eviction policy, controller serve and play, id table, feature
# observe, Bloom, ring route, gossip digest codec, journal put and recovery,
# proxy serve-hit), with allocs/op.
microbench:
	$(GO) test -run xxx -bench . -benchmem ./internal/...

chaos:
	$(GO) run ./cmd/experiments -only chaos

# chaos-crash is the crash-recovery suite: the in-process experiment (a
# deployed node dropped without Close, a second built on its directory) and
# the real-process test that
# SIGKILLs a durable darwin-proxy binary mid-traffic and asserts the restart
# recovers the DC from the journal.
chaos-crash:
	$(GO) run ./cmd/experiments -only crash
	DARWIN_CRASH_PROC=1 $(GO) test ./cmd/darwin-proxy -run TestCrashRecoveryProcess -v

# chaos-cluster is the distributed-edge suite: the deterministic in-process
# drain experiment on the deployed front and nodes, then the real-process
# test that runs a 3-node
# peer-filled cluster behind darwin-front, SIGTERM-drains one node mid-flood,
# and asserts zero client-visible failures while the survivors absorb the load.
chaos-cluster:
	$(GO) run ./cmd/experiments -only cluster
	DARWIN_CLUSTER_PROC=1 $(GO) test ./cmd/darwin-front -run TestClusterDrainProcess -v

# chaos-flap is the self-healing membership suite: the deterministic flap /
# asymmetric-partition / drain-handoff experiment on the deployed front and
# nodes under a simulated clock, then
# the real-process test that SIGTERM-drains a 2-node cluster's donor and
# asserts its ring successor inherits the working set through POST /state.
chaos-flap:
	$(GO) run ./cmd/experiments -only flap
	DARWIN_FLAP_PROC=1 $(GO) test ./cmd/darwin-proxy -run TestDrainHandoffProcess -v
