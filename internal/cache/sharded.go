package cache

import (
	"fmt"
	"runtime"
	"sync"

	"darwin/internal/trace"
)

// Sharded is the concurrent cache engine: N independent Hierarchy shards,
// each owning 1/N of the capacity, Bloom filter budget, per-object records,
// and metrics, with requests routed to their owning shard by an id hash.
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
	// mask is len(shards)-1 when the shard count is a power of two, enabling
	// single-AND routing; 0 selects the modulo fallback (or shard 0 when
	// there is only one shard). Immutable after construction.
	mask uint64
}

// engineShard pairs one serial hierarchy with its mutex. The struct is
// padded so neighbouring shards' mutexes do not false-share a cache line.
type engineShard struct {
	mu sync.Mutex
	// h is the shard's serial hierarchy — its capacities, Bloom filter,
	// record table, and metrics cover only this shard's ids; guarded by mu.
	h *Hierarchy
	_ [48]byte
}

// NewSharded builds a sharded engine from cfg, splitting the HOC and DC
// capacities and the Bloom filter budget evenly across shards. shards <= 0
// selects 1, which reproduces the serial Hierarchy exactly.
func NewSharded(cfg Config, shards int) (*Sharded, error) {
	if shards <= 0 {
		shards = 1
	}
	if cfg.HOCBytes < int64(shards) || cfg.DCBytes < int64(shards) {
		return nil, fmt.Errorf("cache: capacities (hoc=%d dc=%d) too small to split across %d shards", cfg.HOCBytes, cfg.DCBytes, shards)
	}
	per := cfg
	per.HOCBytes = cfg.HOCBytes / int64(shards)
	per.DCBytes = cfg.DCBytes / int64(shards)
	nb := cfg.bloomObjects
	if nb <= 0 {
		nb = 1 << 20 // the Hierarchy default, split across shards below
	}
	per.bloomObjects = (nb + shards - 1) / shards
	s := &Sharded{shards: make([]engineShard, shards)}
	if shards > 1 && shards&(shards-1) == 0 {
		s.mask = uint64(shards - 1)
	}
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
// hot path: pure integer mixing, no allocation, no locks — and a single
// mask when the shard count is a power of two (the AutoShards default).
func (s *Sharded) route(id uint64) int {
	if s.mask != 0 {
		return int(Mix64(id) & s.mask)
	}
	n := len(s.shards)
	if n == 1 {
		return 0
	}
	return int(Mix64(id) % uint64(n))
}

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
// contents (warm-up exclusion).
func (s *Sharded) ResetMetrics() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.h.ResetMetrics()
		sh.mu.Unlock()
	}
}

// SetExpert broadcasts the new admission expert to every shard — the online
// controller calls this at round and epoch boundaries, so the cost of
// walking all shard mutexes is off the request fast path.
func (s *Sharded) SetExpert(e Expert) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.h.SetExpert(e)
		sh.mu.Unlock()
	}
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

// SetAdmission broadcasts a custom HOC admission predicate (nil restores
// expert-based admission) to every shard.
func (s *Sharded) SetAdmission(f AdmissionFunc) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.h.SetAdmission(f)
		sh.mu.Unlock()
	}
}

// HOCBytes returns resident HOC bytes summed across shards.
func (s *Sharded) HOCBytes() int64 {
	return s.sumLevel(func(h *Hierarchy) int64 { return h.HOCBytes() })
}

// DCBytes returns resident DC bytes summed across shards.
func (s *Sharded) DCBytes() int64 { return s.sumLevel(func(h *Hierarchy) int64 { return h.DCBytes() }) }

// HOCLen returns the number of HOC-resident objects summed across shards.
func (s *Sharded) HOCLen() int {
	return int(s.sumLevel(func(h *Hierarchy) int64 { return int64(h.HOCLen()) }))
}

// DCLen returns the number of DC-resident objects summed across shards.
func (s *Sharded) DCLen() int {
	return int(s.sumLevel(func(h *Hierarchy) int64 { return int64(h.DCLen()) }))
}

// sumLevel folds a per-shard occupancy reader over every shard under its
// mutex (occupancy reads are off the hot path).
func (s *Sharded) sumLevel(f func(*Hierarchy) int64) int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += f(sh.h)
		sh.mu.Unlock()
	}
	return total
}
