package lb

// This file is the live half of the load-balancing layer: a reusable
// consistent-hash ring with bounded loads that both the offline trace
// splitter (Split) and the online HTTP front tier (server.Front) route
// through. The ring owns the §2.1 mechanics — vnode placement, per-window
// capacity re-weighting (the Weight hook), and the bounded-loads spill —
// while callers own window cadence: an open-ended stream advances windows
// lazily every RebalanceEvery requests, and a caller that knows the workload
// length (Split) begins each window explicitly so the final partial window's
// budgets scale to the requests that actually remain in it.
//
// Routing is allocation-free: the FNV-1a hash of the request id is computed
// inline (bit-identical to hash/fnv over the id's 8 little-endian bytes,
// pinned by TestHashGoldenIdentity in ring_test.go), the ring lookup is
// a hand-rolled binary search, and window state lives in buffers allocated
// once at construction. TestRouteZeroAllocs pins Route, RouteReplicated and
// Successors at zero allocations.

// FNV-1a constants (hash/fnv), inlined for the allocation-free paths.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// routeHash is FNV-1a over the 8 little-endian bytes of id — bit-identical
// to fnv.New64a().Write(le8(id)).Sum64(), which the balancer used to compute
// through a heap-allocated hash.Hash64 per request.
func routeHash(id uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 64; i += 8 {
		h ^= (id >> i) & 0xff
		h *= fnvPrime64
	}
	return h
}

// vnodeHash is FNV-1a over the vnode label "server-<s>-vnode-<v>" —
// bit-identical to fmt.Fprintf(fnv.New64a(), "server-%d-vnode-%d", s, v),
// with the decimal rendering inlined so ring construction does not run a fmt
// state machine per vnode.
func vnodeHash(s, v int) uint64 {
	h := uint64(fnvOffset64)
	h = fnvString(h, "server-")
	h = fnvInt(h, s)
	h = fnvString(h, "-vnode-")
	h = fnvInt(h, v)
	return h
}

// fnvString folds s into a running FNV-1a state.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvInt folds the decimal rendering of n (n >= 0) into a running FNV-1a
// state without materializing the string.
func fnvInt(h uint64, n int) uint64 {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	for ; i < len(buf); i++ {
		h ^= uint64(buf[i])
		h *= fnvPrime64
	}
	return h
}

// MaxReplicas caps the per-object replication factor the ring will walk for:
// hot objects route over at most this many distinct successors.
const MaxReplicas = 8

// Ring is a consistent-hash ring with bounded loads and per-window capacity
// re-weighting. It is not safe for concurrent routing (callers serialize
// Route/BeginWindow, e.g. under the front tier's routing mutex); Successors
// only reads construction-time state and is safe for concurrent readers.
type Ring struct {
	cfg  Config
	ring []ringEntry

	// Per-window routing state, owned by the router goroutine.
	loads   []int64
	weights []float64
	budgets []float64
	window  int
	n       int // requests routed in the current window
	winLen  int // expected requests in the current window (budget basis)
}

// NewRing builds a ring and begins window 0 sized at a full RebalanceEvery
// window. Callers that know their workload length (Split) re-begin windows
// explicitly with exact lengths.
func NewRing(cfg Config) (*Ring, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	r := &Ring{
		cfg:     cfg,
		ring:    make([]ringEntry, 0, cfg.Servers*virtualNodes),
		loads:   make([]int64, cfg.Servers),
		weights: make([]float64, cfg.Servers),
		budgets: make([]float64, cfg.Servers),
	}
	for s := 0; s < cfg.Servers; s++ {
		for v := 0; v < virtualNodes; v++ {
			r.ring = append(r.ring, ringEntry{hash: vnodeHash(s, v), server: s})
		}
	}
	sortRingEntries(r.ring)
	r.BeginWindow(0, cfg.RebalanceEvery)
	return r, nil
}

// Window returns the current rebalance window index.
func (r *Ring) Window() int { return r.window }

// Weights returns a copy of the current window's weights, as the Weight hook
// answered them.
func (r *Ring) Weights() []float64 {
	out := make([]float64, len(r.weights))
	copy(out, r.weights)
	return out
}

// BeginWindow starts the given rebalance window: loads reset, the Weight
// hook is consulted for every server in this window, and
// bounded-loads budgets are derived from expect — the number of requests the
// caller will route in this window. An open-ended stream passes
// RebalanceEvery; a trace splitter passes the exact (possibly partial) window
// length, so re-weighting keeps its bite in the final window of a trace.
func (r *Ring) BeginWindow(window, expect int) {
	if expect <= 0 {
		expect = r.cfg.RebalanceEvery
	}
	r.window = window
	r.n = 0
	r.winLen = expect
	for i := range r.loads {
		r.loads[i] = 0
	}
	total := 0.0
	for i := range r.weights {
		r.weights[i] = 1
		if r.cfg.Weight != nil {
			if w := r.cfg.Weight(window, i); w >= 0 {
				r.weights[i] = w
			}
		}
		total += r.weights[i]
	}
	for s := range r.budgets {
		if total > 0 {
			// Expression order matches the legacy per-request computation so
			// precomputing budgets is bit-identical to the old balancer.
			r.budgets[s] = (1 + loadFactor) * float64(expect) * r.weights[s] / total
		} else {
			r.budgets[s] = 1
		}
	}
}

// advance runs the lazy window cadence: when the current window has routed
// its expected length, the next full-sized window begins.
func (r *Ring) advance() {
	if r.n >= r.winLen {
		r.BeginWindow(r.window+1, r.cfg.RebalanceEvery)
	}
	r.n++
}

// lookupIdx finds the ring index of hash's successor entry.
func (r *Ring) lookupIdx(hash uint64) int {
	lo, hi := 0, len(r.ring)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.ring[mid].hash >= hash {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(r.ring) {
		lo = 0
	}
	return lo
}

// Route returns the server for one request and advances load accounting:
// the hash target takes it unless over its window budget, in which case the
// request spills clockwise (bounded loads). Allocation-free.
func (r *Ring) Route(id uint64) int {
	return r.RouteReplicated(id, 1)
}

// RouteReplicated routes one request over the object's replica set: the
// first `replicas` distinct servers on the ring walk from the object's hash
// position. Among replicas with remaining window budget the least-loaded
// (relative to budget) wins, so a hot object's traffic spreads over its
// replicas instead of saturating the primary; if every replica is over
// budget the request falls back to the plain bounded-loads spill from the
// hash target. replicas <= 1 is exactly Route.
func (r *Ring) RouteReplicated(id uint64, replicas int) int {
	r.advance()
	idx := r.lookupIdx(routeHash(id))
	target := r.ring[idx].server
	if replicas > 1 {
		if s, ok := r.pickReplica(idx, replicas); ok {
			r.loads[s]++
			return s
		}
	}
	// Bounded loads: spill clockwise past servers over their window budget.
	for probe := 0; probe < r.cfg.Servers; probe++ {
		s := target + probe
		if s >= r.cfg.Servers {
			s -= r.cfg.Servers
		}
		if float64(r.loads[s]) < r.budgets[s] {
			r.loads[s]++
			return s
		}
	}
	// Every server over budget (extreme skew): fall back to the hash target.
	r.loads[target]++
	return target
}

// pickReplica chooses the best replica for the object whose primary ring
// entry is idx: among the first `replicas` distinct servers on the ring walk
// that still have window budget, the one with the lowest load-to-budget
// fraction (walk order breaks ties). Zero-weight servers — drained or
// unready — have zero budget and are never chosen.
func (r *Ring) pickReplica(idx, replicas int) (int, bool) {
	if replicas > MaxReplicas {
		replicas = MaxReplicas
	}
	if replicas > r.cfg.Servers {
		replicas = r.cfg.Servers
	}
	var cand [MaxReplicas]int
	k := r.successorsAt(idx, cand[:replicas])
	best, bestFrac := -1, 0.0
	for i := 0; i < k; i++ {
		s := cand[i]
		if float64(r.loads[s]) >= r.budgets[s] {
			continue
		}
		frac := float64(r.loads[s]) / r.budgets[s]
		if best < 0 || frac < bestFrac {
			best, bestFrac = s, frac
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// successorsAt fills dst with distinct servers in ring-walk order starting
// at entry index start, returning how many it found.
func (r *Ring) successorsAt(start int, dst []int) int {
	count := 0
	for off := 0; off < len(r.ring) && count < len(dst); off++ {
		i := start + off
		if i >= len(r.ring) {
			i -= len(r.ring)
		}
		s := r.ring[i].server
		dup := false
		for j := 0; j < count; j++ {
			if dst[j] == s {
				dup = true
				break
			}
		}
		if !dup {
			dst[count] = s
			count++
		}
	}
	return count
}

// Successors fills dst with the first len(dst) distinct servers on the ring
// walk from id's hash position — dst[0] is the primary hash target, the rest
// are the replica successors — and returns how many were found. It reads
// only construction-time state, so concurrent callers (the proxy's peer-fill
// path) need no serialization.
func (r *Ring) Successors(id uint64, dst []int) int {
	return r.successorsAt(r.lookupIdx(routeHash(id)), dst)
}

// SuccessorOf returns the node that inherits the plurality of server's
// keyspace when it leaves the ring: for each of server's vnodes the next
// distinct server clockwise takes over that arc, and the most frequent such
// inheritor (lowest index on ties) is the natural target for a drain-time
// state handoff. Reads only construction-time state — safe for concurrent
// callers. Returns -1 on a single-server ring.
func (r *Ring) SuccessorOf(server int) int {
	votes := make([]int, r.cfg.Servers)
	for i := range r.ring {
		if r.ring[i].server != server {
			continue
		}
		for off := 1; off <= len(r.ring); off++ {
			j := i + off
			if j >= len(r.ring) {
				j -= len(r.ring)
			}
			if s := r.ring[j].server; s != server {
				votes[s]++
				break
			}
		}
	}
	best := -1
	for s, v := range votes {
		if s == server || v == 0 {
			continue
		}
		if best < 0 || v > votes[best] {
			best = s
		}
	}
	return best
}
