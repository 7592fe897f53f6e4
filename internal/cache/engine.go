package cache

import "darwin/internal/trace"

// Engine is the cache data-plane seam shared by the simulator, the HTTP
// proxy, and the online controller: one request-serving cache hierarchy with
// pluggable expert admission. The serial Hierarchy implements it for
// single-goroutine replay; Sharded implements it for the concurrent proxy
// data plane by partitioning the object space across lock-striped shards.
// The interface is total — every engine answers Concurrent and Lookup — so
// no caller discovers a capability by type assertion.
type Engine interface {
	// Serve processes one request and returns where it was served from.
	Serve(r trace.Request) Result
	// Lookup probes residency without mutating cache state, metrics, or
	// frequency tracking (the proxy's fetch-before-commit seam). A
	// non-resident object the engine holds a record of answers Seen.
	Lookup(id uint64) Result
	// Metrics returns a snapshot of the accumulated counters: coherent
	// (hits+misses == requests) and covering every request served before
	// the call.
	Metrics() Metrics
	// ResetMetrics zeroes the counters without disturbing cache contents.
	ResetMetrics()
	// SetExpert swaps the HOC admission expert (broadcast to every shard in
	// sharded engines).
	SetExpert(e Expert)
	// Expert returns the currently deployed admission expert.
	Expert() Expert
	// Concurrent reports whether the engine may be driven from multiple
	// goroutines at once without external locking: true for Sharded
	// (per-shard mutexes), false for the bare Hierarchy. The HTTP proxy
	// refuses a decider whose engine answers false.
	Concurrent() bool
}

// ConcurrentEngine is the name benchmark/spans.go still compiles against;
// remove it once that file names Engine.
type ConcurrentEngine = Engine

// Compile-time seam checks.
var (
	_ Engine = (*Hierarchy)(nil)
	_ Engine = (*Sharded)(nil)
)
