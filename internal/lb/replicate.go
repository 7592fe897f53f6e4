package lb

// Adaptive replication (PAPERS.md: "Adaptive Replication in Distributed
// Content Delivery Networks"): a per-window popularity tracker that widens
// each hot object's replica set on the ring. Plain consistent hashing sends
// every request for an object to one primary, so a viral object saturates a
// single node while its siblings idle; the Replicator observes per-object
// request share each rebalance window and grants the top-K objects a
// replication factor R proportional to that share — the front tier then
// routes them over R ring successors (Ring.RouteReplicated) and the peer-fill
// path warms the successors on first touch.
//
// Concurrency: Observe and Rebalance serialize on an internal mutex (the
// routing tier calls them under its own routing lock, so the mutex is
// uncontended there); Factor is lock-free on an atomically swapped read-only
// snapshot so data-plane readers never block; the last window's aggregate
// row sits beside the counts under the same mutex for /metrics and reports.

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// The replicator's tuning, which no deployment has varied.
const (
	// replTopK bounds how many objects may hold extra replicas at once.
	replTopK = 16
	// replMaxFactor caps any object's replication factor (at most
	// MaxReplicas).
	replMaxFactor = 3
	// replHotShare is the request share granting one extra replica: an
	// object with share s gets factor 1 + floor(s / replHotShare), so a
	// 2%-share object gets one extra copy and a 6%-share object three
	// (subject to replMaxFactor).
	replHotShare = 0.02
)

// ReplicationStats is the last completed rebalance window's replication row;
// read one with Replicator.Stats.
type ReplicationStats struct {
	Observed      int64 // requests observed in the window
	HotObjects    int64 // objects granted extra replicas
	ExtraReplicas int64 // sum of (factor-1) over hot objects
	MaxFactor     int64 // largest factor granted (0 when nothing is hot)
}

// Replicator tracks per-object popularity per rebalance window and derives
// replication factors for the next window.
type Replicator struct {
	mu     sync.Mutex
	counts map[uint64]int64 // guarded by mu: current window's per-object hits
	total  int64            // guarded by mu: current window's request count
	last   ReplicationStats // guarded by mu: the window Rebalance last closed

	factors atomic.Value // map[uint64]int: read-only snapshot, swapped whole
}

// NewReplicator builds a tracker with no hot objects.
func NewReplicator() *Replicator {
	r := &Replicator{counts: make(map[uint64]int64)}
	r.factors.Store(map[uint64]int{})
	return r
}

// Observe records one request for id in the current window.
func (r *Replicator) Observe(id uint64) {
	r.mu.Lock()
	r.counts[id]++
	r.total++
	r.mu.Unlock()
}

// Factor returns id's current replication factor (>= 1). Lock-free.
func (r *Replicator) Factor(id uint64) int {
	if f, ok := r.factors.Load().(map[uint64]int)[id]; ok {
		return f
	}
	return 1
}

// Stats returns the last completed window's replication row.
func (r *Replicator) Stats() ReplicationStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// hotCandidate pairs an object with its window hit count for top-K sorting.
type hotCandidate struct {
	id    uint64
	count int64
}

// Rebalance closes the current observation window: the top-K objects by hit
// count are granted factors from their request share, the snapshot read by
// Factor is swapped, the window's stats row is kept, and counting restarts.
// Call at every rebalance boundary (typically right after
// Ring.BeginWindow). Returns the new hot set (read-only).
func (r *Replicator) Rebalance() map[uint64]int {
	r.mu.Lock()
	defer r.mu.Unlock()

	cand := make([]hotCandidate, 0, len(r.counts))
	for id, n := range r.counts {
		cand = append(cand, hotCandidate{id: id, count: n})
	}
	// Count descending, then id: a total order, so the top K are the same
	// whatever order the map yields them in.
	slices.SortFunc(cand, func(a, b hotCandidate) int {
		if c := cmp.Compare(b.count, a.count); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	if len(cand) > replTopK {
		cand = cand[:replTopK]
	}

	hot := make(map[uint64]int)
	last := ReplicationStats{Observed: r.total}
	for _, c := range cand {
		share := float64(c.count) / float64(r.total)
		f := min(1+int(share/replHotShare), replMaxFactor)
		if f <= 1 {
			continue
		}
		hot[c.id] = f
		last.HotObjects++
		last.ExtraReplicas += int64(f - 1)
		if int64(f) > last.MaxFactor {
			last.MaxFactor = int64(f)
		}
	}
	r.factors.Store(hot)
	r.last = last

	r.counts = make(map[uint64]int64)
	r.total = 0
	return hot
}
