# Development targets. `make tier1` is the PR gate: build + vet + gofmt + the
# repo's own static analyzers (internal/lint) + full test suite. `make race`
# adds the race detector on the concurrency-heavy packages and `make fuzz`
# runs short fuzzing sessions over the parsing, hashing and indexing seams.
# Numbers come from three places only: `go run ./cmd/experiments` regenerates
# the paper's tables, `make bench` prices the system, `make microbench` prices
# a function; `make smoke` drives origin, proxy and loadgen as real processes,
# and the `chaos*` targets run one fault experiment plus its real-process test.

GO ?= go

.PHONY: tier1 vet fmt build test lint race fuzz bench microbench smoke chaos chaos-crash chaos-cluster chaos-flap

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

# lint runs the project's own stdlib-only static-analysis suite — the
# determinism, locking and lock-order rules (see internal/lint and the README's
# "Static analysis & verification") — over the whole module, stale
# //lint:ignore directives included. `make test` runs the same test.
lint:
	$(GO) test ./internal/lint

race:
	$(GO) test -race ./internal/server ./internal/node ./internal/lb ./internal/cluster ./internal/cache ./internal/par ./internal/core ./internal/exp ./internal/bandit ./internal/breaker ./internal/diskcache ./internal/persist ./internal/gossip ./internal/tracegen

# fuzz runs each fuzz target briefly: URL parsing on the proxy/origin seam,
# the upstream client's response-head parser (a backend's bytes are outside
# input),
# the engine's id table against the built-in map it replaced, the trace
# generator's Zipf sampler against math/rand's rand.Zipf, the
# hierarchy's per-object records against both levels' contents and an exact
# "missed before" set under random op sequences, an offline replay over a
# pre-laid record table against the plain serve loop, the
# controller's batched replay against per-request serving, the bandit's
# step (Next picks an arm in range, Update refuses a round or returns a
# state CheckState accepts, neither writes the state it is given), the
# durability decoders (persist frames, journal records and logs,
# neural-weight payloads) — corrupted on-disk bytes must produce typed
# errors, never panics — a checkpoint frame with one edited slice or number,
# seeded also with payloads that carry no engine part (what restores must
# run; a controller part its restore refuses leaves the restored engine
# playing from a fresh warm-up), a /state frame with one, seeded also with a
# garbage controller part, a bad tracker, a null shard and a tracker of the
# wrong JSON type (no frame may change the heir's controller state; a
# malformed merged level is refused whole; an accepted frame lands the
# donor's residents in the heir's cache, which plays on), and
# internal/lint's own annotation parsers (//lint:ignore directives and
# guarded-by comments).
fuzz:
	$(GO) test ./internal/server -fuzz FuzzParseObjectURL -fuzztime 10s
	$(GO) test ./internal/server -fuzz FuzzUpstreamHead -fuzztime 10s
	$(GO) test ./internal/cache -fuzz FuzzIDTable -fuzztime 10s
	$(GO) test ./internal/tracegen -fuzz FuzzZipfMatchesRand -fuzztime 10s
	$(GO) test ./internal/cache -fuzz FuzzHierarchy -fuzztime 10s
	$(GO) test ./internal/cache -fuzz FuzzReplayMatchesServe -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzControllerPlay -fuzztime 10s
	$(GO) test ./internal/bandit -fuzz FuzzBanditStep -fuzztime 10s
	$(GO) test ./internal/persist -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/diskcache -fuzz FuzzDecodeRecord -fuzztime 10s
	$(GO) test ./internal/diskcache -fuzz FuzzOpenLog -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzCheckpointRuns -fuzztime 10s
	$(GO) test ./internal/node -fuzz FuzzHandoffAccept -fuzztime 10s
	$(GO) test ./internal/gossip -fuzz FuzzDecodeDigest -fuzztime 10s
	$(GO) test ./internal/neural -fuzz FuzzUnmarshalNet -fuzztime 10s
	$(GO) test ./internal/lint -fuzz FuzzParseIgnoreDirective -fuzztime 10s
	$(GO) test ./internal/lint -fuzz FuzzParseGuardedBy -fuzztime 10s

# bench prices the system: the four BENCHMARK.json workloads on the deployed
# plane, medians with quartiles, per-layer self times (benchmark/README.md).
bench:
	bash benchmark/run.sh

# microbench prices single functions: every package-level Benchmark* (engine
# serve per eviction policy, BenchmarkShardedServeRun's run serve, controller
# serve and play, offline training's dataset build, id table, feature
# observe, ring route, gossip digest codec, journal put and recovery, proxy
# serve-hit), with allocs/op.
microbench:
	$(GO) test -run xxx -bench . -benchmem ./internal/...

# The real-process tests below build the binaries they run with `go build`,
# which go test's result cache does not see: -count=1 reruns them on every
# call. (A main package's test binary can be byte-identical across an edit to
# main, so the cache would replay the old run.)
#
# smoke drives the three prototype binaries as separate processes: origin
# (10% injected 5xx, 5% truncated bodies), a static-mode darwin-proxy and
# loadgen, once with the proxy's resilience and overload stages on (the client
# error rate must stay far under the injected rate) and once with both off
# (the faults reach the client, every one a clean 5xx).
smoke:
	DARWIN_SMOKE_PROC=1 $(GO) test -count=1 ./cmd/loadgen -run TestSmokeProcess -v

chaos:
	$(GO) run ./cmd/experiments -only chaos

# chaos-crash is the crash-recovery suite: the in-process experiment (a
# deployed node dropped without Close, a second built on its directory) and
# the real-process test that
# SIGKILLs a durable darwin-proxy binary mid-traffic and asserts the restart
# recovers the DC from the journal.
chaos-crash:
	$(GO) run ./cmd/experiments -only crash
	DARWIN_CRASH_PROC=1 $(GO) test -count=1 ./cmd/darwin-proxy -run TestCrashRecoveryProcess -v

# chaos-cluster is the distributed-edge suite: the deterministic in-process
# drain experiment on the deployed front and nodes, then the real-process
# test that runs a 3-node
# peer-filled cluster behind darwin-front, SIGTERM-drains one node mid-flood,
# and asserts zero client-visible failures while the survivors absorb the load.
chaos-cluster:
	$(GO) run ./cmd/experiments -only cluster
	DARWIN_CLUSTER_PROC=1 $(GO) test -count=1 ./cmd/darwin-front -run TestClusterDrainProcess -v

# chaos-flap is the self-healing membership suite: the deterministic flap /
# asymmetric-partition / drain-handoff experiment on the deployed front and
# nodes under a simulated clock, then
# the real-process test that SIGTERM-drains a 2-node cluster's donor and
# asserts its ring successor inherits the working set through POST /state.
chaos-flap:
	$(GO) run ./cmd/experiments -only flap
	DARWIN_FLAP_PROC=1 $(GO) test -count=1 ./cmd/darwin-proxy -run TestDrainHandoffProcess -v
