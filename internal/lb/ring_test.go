package lb

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"darwin/internal/trace"
)

// TestHashGoldenIdentity pins the inlined FNV-1a paths to the stdlib
// implementations they replaced: routeHash must equal fnv.New64a over the
// id's 8 little-endian bytes, and vnodeHash must equal the old
// fmt.Fprintf(h, "server-%d-vnode-%d", ...) construction. Ring placement and
// request routing are bit-identical to the legacy balancer iff these hold.
func TestHashGoldenIdentity(t *testing.T) {
	ids := []uint64{0, 1, 42, 255, 256, 1<<32 - 1, 1 << 32, 1<<64 - 1, 0xdeadbeefcafebabe}
	for i := uint64(0); i < 1000; i++ {
		ids = append(ids, i*2654435761%97, i*i*31)
	}
	for _, id := range ids {
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(id >> (8 * i))
		}
		h.Write(buf[:])
		if want, got := h.Sum64(), routeHash(id); got != want {
			t.Fatalf("routeHash(%d) = %#x, fnv = %#x", id, got, want)
		}
	}
	for s := 0; s < 40; s++ {
		for v := 0; v < 100; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "server-%d-vnode-%d", s, v)
			if want, got := h.Sum64(), vnodeHash(s, v); got != want {
				t.Fatalf("vnodeHash(%d,%d) = %#x, fnv/fmt = %#x", s, v, got, want)
			}
		}
	}
}

// legacyRoute is the pre-refactor Balancer.Route (per-request fnv.New64a,
// per-probe budget recomputation), kept here as the golden reference: the
// new allocation-free Ring must reproduce its decisions bit-for-bit.
type legacyBalancer struct {
	cfg     Config
	ring    []ringEntry
	loads   []int
	weights []float64
	window  int
	n       int
}

func newLegacy(cfg Config) *legacyBalancer {
	cfg = cfg.WithDefaults()
	b := &legacyBalancer{cfg: cfg, loads: make([]int, cfg.Servers)}
	for s := 0; s < cfg.Servers; s++ {
		for v := 0; v < cfg.VirtualNodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "server-%d-vnode-%d", s, v)
			b.ring = append(b.ring, ringEntry{hash: h.Sum64(), server: s})
		}
	}
	sort.Slice(b.ring, func(i, j int) bool { return b.ring[i].hash < b.ring[j].hash })
	b.weights = b.windowWeights(0)
	return b
}

func (b *legacyBalancer) windowWeights(window int) []float64 {
	var w []float64
	switch {
	case b.cfg.WeightSchedule != nil:
		w = b.cfg.WeightSchedule(window)
	case b.cfg.Weights != nil:
		w = b.cfg.Weights
	}
	out := make([]float64, b.cfg.Servers)
	for i := range out {
		out[i] = 1
		if i < len(w) && w[i] >= 0 {
			out[i] = w[i]
		}
		if b.cfg.Readiness != nil {
			if r := b.cfg.Readiness(window, i); r >= 0 && r < 1 {
				out[i] *= r
			}
		}
	}
	return out
}

func (b *legacyBalancer) route(id uint64) int {
	if b.n >= b.cfg.RebalanceEvery {
		b.window++
		b.n = 0
		for i := range b.loads {
			b.loads[i] = 0
		}
		b.weights = b.windowWeights(b.window)
	}
	b.n++
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(id >> (8 * i))
	}
	h.Write(buf[:])
	target := func(hash uint64) int {
		i := sort.Search(len(b.ring), func(i int) bool { return b.ring[i].hash >= hash })
		if i == len(b.ring) {
			i = 0
		}
		return b.ring[i].server
	}(h.Sum64())
	var totalWeight float64
	for _, w := range b.weights {
		totalWeight += w
	}
	for probe := 0; probe < b.cfg.Servers; probe++ {
		s := (target + probe) % b.cfg.Servers
		budget := 1.0
		if totalWeight > 0 {
			budget = (1 + b.cfg.LoadFactor) * float64(b.cfg.RebalanceEvery) * b.weights[s] / totalWeight
		}
		if float64(b.loads[s]) < budget {
			b.loads[s]++
			return s
		}
	}
	b.loads[target]++
	return target
}

// TestRouteBitIdenticalToLegacy drives the Ring and the
// golden legacy implementation over the same skewed stream — weight
// schedule, readiness scaling, multiple windows, and a partial final window
// — and requires identical routing decisions at every step.
func TestRouteBitIdenticalToLegacy(t *testing.T) {
	cfg := Config{
		Servers:        5,
		VirtualNodes:   32,
		LoadFactor:     0.2,
		RebalanceEvery: 1000,
		WeightSchedule: func(window int) []float64 {
			switch window % 3 {
			case 0:
				return []float64{1, 1, 1, 1, 1}
			case 1:
				return []float64{2, 1, 0.5, 1, 1}
			default:
				return []float64{1, 0, 1, 1, 0.25}
			}
		},
		Readiness: func(window, server int) float64 {
			if window >= 2 && server == 3 {
				return 0.5
			}
			return 1
		},
	}
	b, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacy := newLegacy(cfg)
	for i := 0; i < 4321; i++ { // 4 full windows + a partial tail
		id := uint64(i) * 2654435761
		if i%3 == 0 {
			id = 7 // hot object to force bounded-loads spills
		}
		got := b.Route(id)
		want := legacy.route(id)
		if got != want {
			t.Fatalf("request %d (id %d): ring routed to %d, legacy to %d", i, id, got, want)
		}
	}
}

// TestRouteZeroAllocs pins the satellite claim: routing allocates nothing,
// including the replicated path.
func TestRouteZeroAllocs(t *testing.T) {
	r, err := NewRing(Config{Servers: 8, RebalanceEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	if avg := testing.AllocsPerRun(2000, func() {
		r.Route(id)
		id++
	}); avg != 0 {
		t.Fatalf("Route allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		r.RouteReplicated(id, 3)
		id++
	}); avg != 0 {
		t.Fatalf("RouteReplicated allocates %.1f allocs/op, want 0", avg)
	}
	var dst [3]int
	if avg := testing.AllocsPerRun(2000, func() {
		r.Successors(id, dst[:])
		id++
	}); avg != 0 {
		t.Fatalf("Successors allocates %.1f allocs/op, want 0", avg)
	}
}

func BenchmarkRoute(b *testing.B) {
	r, err := NewRing(Config{Servers: 8, RebalanceEvery: 100_000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Route(uint64(i) * 2654435761)
	}
}

func BenchmarkRouteReplicated(b *testing.B) {
	r, err := NewRing(Config{Servers: 8, RebalanceEvery: 100_000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RouteReplicated(uint64(i)*2654435761, 3)
	}
}

// TestBoundedLoadsProperty is the invariant behind the whole layer: in every
// window — full or partial, under any weight schedule — no server's load
// exceeds its (1+ε)-scaled budget (load ≤ ⌊budget⌋+1, since admission checks
// load < budget). The hot-object pressure (every 3rd request is one id)
// forces constant spilling, and the final window is deliberately partial.
func TestBoundedLoadsProperty(t *testing.T) {
	schedules := map[string]func(window int) []float64{
		"uniform": nil,
		"drain":   func(int) []float64 { return []float64{1, 1, 1, 0} },
		"skew":    func(int) []float64 { return []float64{4, 2, 1, 1} },
		"rotate": func(w int) []float64 {
			out := []float64{1, 1, 1, 1}
			out[w%4] = 0.1
			return out
		},
	}
	for name, sched := range schedules {
		for _, eps := range []float64{0.1, 0.25, 0.5} {
			r, err := NewRing(Config{
				Servers:        4,
				LoadFactor:     eps,
				RebalanceEvery: 5000,
				WeightSchedule: sched,
			})
			if err != nil {
				t.Fatal(err)
			}
			id := uint64(0)
			for window, expect := range []int{5000, 5000, 1234} {
				r.BeginWindow(window, expect)
				for i := 0; i < expect; i++ {
					rid := id * 11400714819323198485
					if i%3 == 0 {
						rid = 99 // hot object: one id takes a third of traffic
					}
					r.Route(rid)
					id++
				}
				weights := r.Weights()
				var total float64
				for _, w := range weights {
					total += w
				}
				for s, load := range r.Loads() {
					budget := (1 + eps) * float64(expect) * weights[s] / total
					if float64(load) >= budget+1 {
						t.Fatalf("%s ε=%.2f window %d: server %d load %d exceeds budget %.1f",
							name, eps, window, s, load, budget)
					}
				}
			}
		}
	}
}

// TestSplitExactFinalWindow is the satellite fix: a readiness change landing
// in a trace's final *partial* window must still shed load. Before the fix,
// Split budgeted the partial window as if it were a full RebalanceEvery
// window, so a down-weighted server's budget dwarfed the window's actual
// traffic and the readiness update was silently dropped.
func TestSplitExactFinalWindow(t *testing.T) {
	const (
		every   = 10_000
		tail    = 1000
		total   = 2*every + tail
		servers = 3
	)
	tr := &trace.Trace{Name: "partial"}
	for i := 0; i < total; i++ {
		tr.Requests = append(tr.Requests, trace.Request{ID: uint64(i), Time: int64(i), Size: 1})
	}
	cfg := Config{
		Servers:        servers,
		RebalanceEvery: every,
		Readiness: func(window, server int) float64 {
			if window == 2 && server == 0 {
				return 0.1 // server 0 degrades for the final partial window
			}
			return 1
		},
	}
	subs, err := Split(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count how much of the final window's traffic server 0 kept. IDs are
	// unique and equal to the global index, so membership identifies the
	// window.
	w2 := 0
	for _, r := range subs[0].Requests {
		if r.ID >= 2*every {
			w2++
		}
	}
	// Exact budget for the partial window: (1+0.25)·1000·0.1/2.1 ≈ 60. Under
	// the old full-window budgeting (≈595 > the server's whole hash share of
	// ~333) the shed never engaged.
	budget := 1.25 * tail * 0.1 / 2.1
	if float64(w2) >= budget+1 {
		t.Fatalf("degraded server kept %d of the partial window, budget %.1f", w2, budget)
	}
	if w2 == 0 {
		t.Fatal("degraded server fully starved: readiness 0.1 should leave a trickle")
	}
	// The healthy servers absorb the remainder.
	if got := subs[0].Len() + subs[1].Len() + subs[2].Len(); got != total {
		t.Fatalf("split lost requests: %d != %d", got, total)
	}
}

// TestReplicatorFactors covers the share→factor mapping, the TopK and
// MaxFactor caps, the stats row, and window reset.
func TestReplicatorFactors(t *testing.T) {
	rep := NewReplicator(ReplicationConfig{TopK: 4, MaxFactor: 3, HotShare: 0.02})
	// 1000 observations: id 1 has 50% share (capped at factor 3), id 2 has
	// 3% (factor 2), id 3 has 1% (cold), remainder unique.
	for i := 0; i < 500; i++ {
		rep.Observe(1)
	}
	for i := 0; i < 30; i++ {
		rep.Observe(2)
	}
	for i := 0; i < 10; i++ {
		rep.Observe(3)
	}
	for i := 0; i < 460; i++ {
		rep.Observe(uint64(1000 + i))
	}
	if f := rep.Factor(1); f != 1 {
		t.Fatalf("factor before rebalance = %d, want 1", f)
	}
	hot := rep.Rebalance()
	if f := rep.Factor(1); f != 3 {
		t.Fatalf("50%%-share object factor = %d, want 3 (MaxFactor cap)", f)
	}
	if f := rep.Factor(2); f != 2 {
		t.Fatalf("3%%-share object factor = %d, want 2", f)
	}
	if f := rep.Factor(3); f != 1 {
		t.Fatalf("1%%-share object factor = %d, want 1", f)
	}
	if f := rep.Factor(1000); f != 1 {
		t.Fatalf("cold object factor = %d, want 1", f)
	}
	if len(hot) != 2 {
		t.Fatalf("hot set size %d, want 2", len(hot))
	}
	if stats, want := rep.Stats(), (ReplicationStats{Observed: 1000, HotObjects: 2, ExtraReplicas: 3, MaxFactor: 3}); stats != want {
		t.Fatalf("stats row %+v, want %+v", stats, want)
	}
	// An empty follow-up window clears the hot set.
	rep.Rebalance()
	if f := rep.Factor(1); f != 1 {
		t.Fatalf("factor after empty window = %d, want 1", f)
	}
}

func TestReplicatorTopK(t *testing.T) {
	rep := NewReplicator(ReplicationConfig{TopK: 4, MaxFactor: 3, HotShare: 0.01})
	// 20 objects, every one above HotShare; only the 4 biggest may replicate.
	for id := uint64(0); id < 20; id++ {
		for i := 0; i < 100-int(id); i++ {
			rep.Observe(id)
		}
	}
	hot := rep.Rebalance()
	if len(hot) != 4 {
		t.Fatalf("hot set size %d, want TopK=4", len(hot))
	}
	for id := uint64(0); id < 4; id++ {
		if hot[id] <= 1 {
			t.Fatalf("top object %d not replicated: %v", id, hot)
		}
	}
}

// TestRouteReplicatedSpreadsHotObject closes the loop: after one observed
// window, a 50%-share object routes over its replica set instead of
// saturating (and spilling off) its primary.
func TestRouteReplicatedSpreadsHotObject(t *testing.T) {
	r, err := NewRing(Config{Servers: 4, RebalanceEvery: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplicator(ReplicationConfig{})
	const hot = uint64(7)
	mix := func(i int) uint64 {
		if i%2 == 0 {
			return hot
		}
		return uint64(1000 + i)
	}
	// Window 0: observe while routing unreplicated.
	for i := 0; i < 10_000; i++ {
		id := mix(i)
		rep.Observe(id)
		r.Route(id)
	}
	rep.Rebalance()
	if f := rep.Factor(hot); f != 3 {
		t.Fatalf("hot factor = %d, want 3", f)
	}
	// Window 1: route with the learned factors; the hot object must spread
	// over its replica successors, none taking more than half its traffic.
	r.BeginWindow(1, 10_000)
	perServer := make(map[int]int)
	for i := 0; i < 10_000; i++ {
		id := mix(i)
		s := r.RouteReplicated(id, rep.Factor(id))
		if id == hot {
			perServer[s]++
		}
	}
	if len(perServer) < 2 {
		t.Fatalf("hot object stayed on %d server(s): %v", len(perServer), perServer)
	}
	var dst [3]int
	k := r.Successors(hot, dst[:])
	if k != 3 {
		t.Fatalf("successor walk found %d servers, want 3", k)
	}
	allowed := map[int]bool{dst[0]: true, dst[1]: true, dst[2]: true}
	for s, n := range perServer {
		if !allowed[s] {
			t.Fatalf("hot object routed to %d, outside replica set %v", s, dst)
		}
		if n > 2500 {
			t.Fatalf("replica %d absorbed %d of 5000 hot requests; spread %v", s, n, perServer)
		}
	}
}

// TestSuccessorsDistinct: the walk yields distinct servers, primary first.
func TestSuccessorsDistinct(t *testing.T) {
	r, err := NewRing(Config{Servers: 6, RebalanceEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var dst [6]int
	for id := uint64(0); id < 200; id++ {
		k := r.Successors(id, dst[:])
		if k != 6 {
			t.Fatalf("id %d: %d successors, want 6", id, k)
		}
		seen := map[int]bool{}
		for _, s := range dst {
			if seen[s] {
				t.Fatalf("id %d: duplicate server %d in %v", id, s, dst)
			}
			seen[s] = true
		}
		// dst[0] is the unloaded hash target: a fresh ring must route there.
		fresh, err := NewRing(Config{Servers: 6, RebalanceEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		if got := fresh.Route(id); got != dst[0] {
			t.Fatalf("id %d: Route -> %d, Successors primary %d", id, got, dst[0])
		}
	}
}

// TestSuccessorOf: the drain-handoff target is a valid distinct node, is
// deterministic, and matches a brute-force plurality count over the ring's
// vnode arcs. A single-server ring has no successor.
func TestSuccessorOf(t *testing.T) {
	for _, servers := range []int{2, 3, 6} {
		r, err := NewRing(Config{Servers: servers, RebalanceEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < servers; s++ {
			got := r.SuccessorOf(s)
			if got < 0 || got >= servers || got == s {
				t.Fatalf("servers=%d: SuccessorOf(%d) = %d", servers, s, got)
			}
			if again := r.SuccessorOf(s); again != got {
				t.Fatalf("servers=%d: SuccessorOf(%d) nondeterministic: %d then %d", servers, s, got, again)
			}
			// Brute force: count, per vnode of s, the next distinct server.
			votes := make(map[int]int)
			for i := range r.ring {
				if r.ring[i].server != s {
					continue
				}
				for off := 1; off <= len(r.ring); off++ {
					j := (i + off) % len(r.ring)
					if r.ring[j].server != s {
						votes[r.ring[j].server]++
						break
					}
				}
			}
			best, bestV := -1, 0
			for cand := 0; cand < servers; cand++ {
				if v := votes[cand]; v > bestV {
					best, bestV = cand, v
				}
			}
			if got != best {
				t.Fatalf("servers=%d: SuccessorOf(%d) = %d, brute force says %d (votes %v)", servers, s, got, best, votes)
			}
		}
	}
	single, err := NewRing(Config{Servers: 1, RebalanceEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := single.SuccessorOf(0); got != -1 {
		t.Fatalf("single-server SuccessorOf = %d, want -1", got)
	}
}
