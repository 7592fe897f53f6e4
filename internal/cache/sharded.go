package cache

import (
	"fmt"
	"runtime"
	"sync"

	"darwin/internal/trace"
)

// Sharded is the concurrent cache engine: N independent Hierarchy shards,
// each owning 1/N of the capacity, and the per-object records and metrics
// of its ids, with requests routed to their owning shard by an id hash.
// Admission, eviction, and frequency tracking are all keyed on object id, so
// shards never need to coordinate on the request path — two requests for
// objects on different shards proceed fully in parallel, each under its own
// shard mutex.
//
// Sharded with shards=1 is bit-identical to the serial Hierarchy (one shard
// holds the full configuration and every request routes to it); what it adds
// over a bare Hierarchy is the mutex, making it the drop-in "global lock"
// arm of throughput comparisons.
//
// Metrics reads take each shard's mutex in turn and sum: every shard is
// seen at one instant, so a single request's counters are never observed
// torn across fields, and a read reflects every request served before it.
type Sharded struct {
	shards []engineShard
	// mask is len(shards)-1, a power of two minus one: routing is a single
	// AND. Immutable after construction.
	mask uint64
}

// engineShard pairs one serial hierarchy with its mutex. The struct is
// padded so neighbouring shards' mutexes do not false-share a cache line.
type engineShard struct {
	mu sync.Mutex
	// h is the shard's serial hierarchy — its capacities, record table, and
	// metrics cover only this shard's ids; guarded by mu.
	h *Hierarchy
	_ [48]byte
}

// NewSharded builds a sharded engine from cfg, splitting the HOC and DC
// capacities evenly across shards, a power of two. shards <= 0 selects 1,
// which reproduces the serial Hierarchy exactly.
func NewSharded(cfg Config, shards int) (*Sharded, error) {
	if shards <= 0 {
		shards = 1
	}
	if shards&(shards-1) != 0 {
		return nil, fmt.Errorf("cache: shard count %d is not a power of two", shards)
	}
	if cfg.HOCBytes < int64(shards) || cfg.DCBytes < int64(shards) {
		return nil, fmt.Errorf("cache: capacities (hoc=%d dc=%d) too small to split across %d shards", cfg.HOCBytes, cfg.DCBytes, shards)
	}
	per := cfg
	per.HOCBytes = cfg.HOCBytes / int64(shards)
	per.DCBytes = cfg.DCBytes / int64(shards)
	s := &Sharded{shards: make([]engineShard, shards), mask: uint64(shards - 1)}
	for i := range s.shards {
		h, err := New(per)
		if err != nil {
			return nil, err
		}
		s.shards[i] = engineShard{h: h}
	}
	return s, nil
}

// AutoShards picks a shard count for the current process when the operator
// does not: 1 under GOMAXPROCS == 1 — the serial engine, since sharding
// there only adds routing and extra-mutex overhead — otherwise GOMAXPROCS
// rounded up to the next power of two so shard routing is a single AND.
func AutoShards() int {
	n := runtime.GOMAXPROCS(0)
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Shards returns the shard count (for report headers and capacity math).
func (s *Sharded) Shards() int { return len(s.shards) }

// SetPublishEvery and SyncMetrics do nothing: there is no batched mirror to
// size or flush. They remain only because benchmark/ is frozen and still
// calls them (benchmark/topology.go:46, benchmark/spans.go:287); the next
// benchmark/ change deletes both (ROADMAP pay-rent leftover iv).
func (s *Sharded) SetPublishEvery(int) {}

// SyncMetrics does nothing; see SetPublishEvery.
func (s *Sharded) SyncMetrics() {}

// Concurrent implements Engine: per-shard mutexes make Sharded safe for
// concurrent callers.
func (s *Sharded) Concurrent() bool { return true }

// route maps an object id to its owning shard index. It is on the request
// hot path: pure integer mixing and one mask, no allocation, no locks.
func (s *Sharded) route(id uint64) int { return int(Mix64(id) & s.mask) }

// Mix64 is a SplitMix64-style finalizer: a cheap, allocation-free bijective
// mix spreading adjacent keys across the id space. Shard routing, the id
// table's home slots and the server's stat striping all derive from it.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Serve processes one request on the owning shard.
func (s *Sharded) Serve(r trace.Request) Result {
	sh := &s.shards[s.route(r.ID)]
	sh.mu.Lock()
	res := sh.h.Serve(r)
	sh.mu.Unlock()
	return res
}

// runChunk is how many requests ServeRun serves per acquisition of the
// shard mutexes: long enough that the locking is a small share of the
// chunk, short enough that a concurrent Serve waits one chunk (≈20 µs) at
// most.
const runChunk = 256

// ServeRun serves reqs in order, exactly as Serve on each would, taking
// every shard's mutex once per chunk of runChunk requests instead of one
// mutex per request: the serial replay's (core.Controller.Play's) path.
// Lock order: shard mutexes in ascending index order, after any lock the
// caller holds (the controller's mu comes first). A chunk holds every shard
// at once, so a concurrent Serve, Lookup or Metrics caller waits for the
// chunk to finish, ≈20 µs. The HTTP data plane keeps Serve.
func (s *Sharded) ServeRun(reqs []trace.Request) {
	for len(reqs) > 0 {
		chunk := reqs[:min(len(reqs), runChunk)]
		reqs = reqs[len(chunk):]
		for i := range s.shards {
			s.shards[i].mu.Lock()
		}
		for _, r := range chunk {
			s.shards[s.route(r.ID)].h.Serve(r)
		}
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}
}

// Lookup probes residency on the owning shard without mutating any state.
func (s *Sharded) Lookup(id uint64) Result {
	sh := &s.shards[s.route(id)]
	sh.mu.Lock()
	res := sh.h.Lookup(id)
	sh.mu.Unlock()
	return res
}

// Metrics returns the aggregate counters summed across shards, each shard
// read under its mutex: hits+misses == requests holds in every read.
func (s *Sharded) Metrics() Metrics {
	var sum Metrics
	for i := range s.shards {
		sum.add(s.ShardMetrics(i))
	}
	return sum
}

// ShardMetrics returns one shard's counters, for tests and per-partition
// diagnostics.
func (s *Sharded) ShardMetrics(i int) Metrics {
	sh := &s.shards[i]
	sh.mu.Lock()
	m := sh.h.Metrics()
	sh.mu.Unlock()
	return m
}

// ResetMetrics zeroes every shard's counters without disturbing cache
// contents.
func (s *Sharded) ResetMetrics() {
	s.each(func(_ int, h *Hierarchy) { h.ResetMetrics() })
}

// SetExpert broadcasts the new admission expert to every shard — the online
// controller calls this at round and epoch boundaries, so the cost of
// walking all shard mutexes is off the request fast path.
func (s *Sharded) SetExpert(e Expert) {
	s.each(func(_ int, h *Hierarchy) { h.SetExpert(e) })
}

// Expert returns the currently deployed admission expert (identical on
// every shard; shard 0 is read).
func (s *Sharded) Expert() Expert {
	sh := &s.shards[0]
	sh.mu.Lock()
	e := sh.h.Expert()
	sh.mu.Unlock()
	return e
}

// ExpertSwitches returns how many times the deployed expert changed.
// Broadcasts reach every shard together, so shard 0's count is the logical
// switch count.
func (s *Sharded) ExpertSwitches() int64 {
	sh := &s.shards[0]
	sh.mu.Lock()
	n := sh.h.ExpertSwitches()
	sh.mu.Unlock()
	return n
}

// each runs f on every shard's hierarchy in shard order, each under its
// shard's mutex.
func (s *Sharded) each(f func(i int, h *Hierarchy)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		f(i, sh.h)
		sh.mu.Unlock()
	}
}
