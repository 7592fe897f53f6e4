package exp

// Cluster chaos: the distributed-edge experiment. A seeded trace floods a
// simulated N-node edge cluster — each node a full HOC+DC hierarchy — routed
// by the same consistent-hash ring with bounded loads, readiness
// re-weighting, and adaptive replication that server.Front runs live, with
// the peer-fill path modeled as a sibling residency probe before the origin
// hop. Mid-flood one node drains (SIGTERM: stops accepting, drops out of
// peer fill, sheds its ring weight at the next window boundary) and the
// report tracks per-window, per-node OHR through the dip and recovery:
// replication has pre-warmed the hot set on ring successors and peer fill
// re-warms the survivors from each other, so cluster OHR climbs back toward
// its pre-drain level without the drained node ever returning.
//
// Unlike the prototype/chaos/overload experiments this one runs no HTTP and
// reads no clock: routing, caching, and the latency model are all
// deterministic functions of the seeded trace, so the report is
// byte-reproducible run to run (the determinism lint rule holds with no
// carve-outs here).

import (
	"fmt"
	"time"

	"darwin/internal/cache"
	"darwin/internal/lb"
)

// ClusterConfig sizes the cluster chaos experiment.
type ClusterConfig struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// WindowLen is the rebalance window length in requests: weights, budgets,
	// and replication factors refresh at each boundary.
	WindowLen int
	// VirtualNodes and LoadFactor parameterise the ring.
	VirtualNodes int
	LoadFactor   float64
	// Replication parameterises the popularity tracker.
	Replication lb.ReplicationConfig
	// PeerFanout is how many ring successors a missing node probes before
	// the origin hop (the darwin-proxy -peer-fanout knob).
	PeerFanout int
	// DrainNode drains (stops accepting requests and answering peer probes)
	// at request index DrainAt — mid-window, so the tail of that window shows
	// in-request failover before the boundary strips the node's weight.
	DrainNode int
	DrainAt   int
	// Expert and Eval fix each node's admission expert and level capacities.
	Expert cache.Expert
	Eval   cache.EvalConfig
	// Mix, TraceLen, and Seed generate the replayed trace.
	Mix      int
	TraceLen int
	Seed     int64
	// Modeled service latencies: a local cache hit, a peer fill (one extra
	// intra-cluster hop), and an origin fetch (the WAN hop). Goodput counts
	// requests served within Deadline.
	HitLatency    time.Duration
	PeerLatency   time.Duration
	OriginLatency time.Duration
	Deadline      time.Duration
}

// DefaultClusterConfig returns the benchmark-scale cluster schedule: 3 nodes,
// 12 windows of 2000 requests, node 0 draining mid-window 5, and a latency
// model where only origin fetches blow the client deadline.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Nodes:         3,
		WindowLen:     2000,
		VirtualNodes:  64,
		LoadFactor:    0.25,
		Replication:   lb.ReplicationConfig{TopK: 16, MaxFactor: 3, HotShare: 0.02},
		PeerFanout:    2,
		DrainNode:     0,
		DrainAt:       11_000,
		Expert:        cache.Expert{Freq: 1, MaxSize: 1 << 20},
		Eval:          cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20},
		Mix:           50,
		TraceLen:      24_000,
		Seed:          7,
		HitLatency:    1 * time.Millisecond,
		PeerLatency:   2 * time.Millisecond,
		OriginLatency: 10 * time.Millisecond,
		Deadline:      5 * time.Millisecond,
	}
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	d := DefaultClusterConfig()
	if c.Nodes <= 1 {
		c.Nodes = d.Nodes
	}
	if c.WindowLen <= 0 {
		c.WindowLen = d.WindowLen
	}
	if c.PeerFanout <= 0 {
		c.PeerFanout = d.PeerFanout
	}
	if c.TraceLen <= 0 {
		c.TraceLen = d.TraceLen
	}
	if c.Eval.HOCBytes <= 0 {
		c.Eval = d.Eval
	}
	if c.Expert == (cache.Expert{}) {
		c.Expert = d.Expert
	}
	if c.HitLatency <= 0 {
		c.HitLatency, c.PeerLatency, c.OriginLatency, c.Deadline =
			d.HitLatency, d.PeerLatency, d.OriginLatency, d.Deadline
	}
	return c
}

// clusterWindow accumulates one rebalance window's cluster outcome.
type clusterWindow struct {
	reqs      int
	local     int // served from the routed node's HOC or DC
	peerFills int // origin-bound misses filled from a ring sibling
	origin    int // true origin fetches
	failovers int // requests re-routed off the draining node mid-window
	onTime    int // modeled latency within the client deadline

	nodeReqs []int // per routed node
	nodeHits []int

	hotObjects int // replication stats at the window's close
	maxFactor  int
}

func (w clusterWindow) ohr() float64 {
	if w.reqs == 0 {
		return 0
	}
	return float64(w.local+w.peerFills) / float64(w.reqs)
}

func (w clusterWindow) goodput() float64 {
	if w.reqs == 0 {
		return 0
	}
	return float64(w.onTime) / float64(w.reqs)
}

// ClusterResult is the full windowed trajectory plus the recovery headline.
type ClusterResult struct {
	Windows []clusterWindow
	// PreDrainOHR is the cluster OHR of the last full window before the
	// drain; FinalOHR is the last window's. Recovery is their ratio — the
	// acceptance bar is >= 0.9.
	PreDrainOHR float64
	FinalOHR    float64
	DrainWindow int
}

// Recovery returns FinalOHR / PreDrainOHR (0 when the pre-drain OHR is 0).
func (r *ClusterResult) Recovery() float64 {
	if r.PreDrainOHR == 0 {
		return 0
	}
	return r.FinalOHR / r.PreDrainOHR
}

// RunCluster replays the seeded trace through the simulated cluster and
// returns the windowed trajectory.
func RunCluster(cc ClusterConfig) (*ClusterResult, error) {
	cc = cc.withDefaults()
	if cc.DrainNode < 0 || cc.DrainNode >= cc.Nodes {
		return nil, fmt.Errorf("exp: drain node %d out of range [0,%d)", cc.DrainNode, cc.Nodes)
	}
	tr, err := SyntheticMix(cc.Mix, cc.TraceLen, cc.Seed)
	if err != nil {
		return nil, err
	}

	nodes := make([]*cache.Hierarchy, cc.Nodes)
	for i := range nodes {
		nodes[i], err = cache.New(cache.Config{
			HOCBytes: cc.Eval.HOCBytes,
			DCBytes:  cc.Eval.DCBytes,
			Expert:   cc.Expert,
		})
		if err != nil {
			return nil, err
		}
	}

	// ready mirrors the front tier's /readyz view; the ring's readiness hook
	// reads it at each window boundary, so a mid-window drain keeps its stale
	// weight until the boundary and relies on failover in between — exactly
	// the live system's exposure window.
	ready := make([]bool, cc.Nodes)
	for i := range ready {
		ready[i] = true
	}
	ring, err := lb.NewRing(lb.Config{
		Servers:        cc.Nodes,
		VirtualNodes:   cc.VirtualNodes,
		LoadFactor:     cc.LoadFactor,
		RebalanceEvery: cc.WindowLen,
		Readiness: func(window, s int) float64 {
			if !ready[s] {
				return 0
			}
			return 1
		},
	})
	if err != nil {
		return nil, err
	}
	rep := lb.NewReplicator(cc.Replication)

	width := cc.PeerFanout + 1
	if width > cc.Nodes {
		width = cc.Nodes
	}
	if width > lb.MaxReplicas {
		width = lb.MaxReplicas
	}
	var succ [lb.MaxReplicas]int
	var repStats [lb.RsWidth]int64

	res := &ClusterResult{DrainWindow: cc.DrainAt / cc.WindowLen}
	reqs := tr.Requests
	for start, window := 0, 0; start < len(reqs); start, window = start+cc.WindowLen, window+1 {
		end := start + cc.WindowLen
		if end > len(reqs) {
			end = len(reqs)
		}
		// Eager cadence, like lb.Split: exact window lengths so the final
		// partial window's budgets match its actual traffic.
		ring.BeginWindow(window, end-start)

		cw := clusterWindow{
			nodeReqs: make([]int, cc.Nodes),
			nodeHits: make([]int, cc.Nodes),
		}
		for i := start; i < end; i++ {
			if i == cc.DrainAt {
				ready[cc.DrainNode] = false
			}
			req := reqs[i]
			cw.reqs++

			s := ring.RouteReplicated(req.ID, rep.Factor(req.ID))
			rep.Observe(req.ID)
			if !ready[s] {
				// In-request failover: the first ready ring successor takes
				// it (the front tier's transport-error path).
				cw.failovers++
				k := ring.Successors(req.ID, succ[:width])
				s = -1
				for j := 0; j < k; j++ {
					if ready[succ[j]] {
						s = succ[j]
						break
					}
				}
				if s < 0 {
					for n := range nodes {
						if ready[n] {
							s = n
							break
						}
					}
				}
				if s < 0 {
					return nil, fmt.Errorf("exp: no ready node at request %d", i)
				}
			}

			cw.nodeReqs[s]++
			lat := cc.OriginLatency
			if r := nodes[s].Serve(req); r != cache.Miss {
				cw.local++
				cw.nodeHits[s]++
				lat = cc.HitLatency
			} else {
				// Origin-bound: probe ready ring siblings for residency
				// before the WAN hop (the proxy's peer-fill seam). The
				// primary's Serve above has already journaled the miss, so a
				// fill admits on the primary exactly like the live path.
				k := ring.Successors(req.ID, succ[:width])
				for j := 0; j < k; j++ {
					p := succ[j]
					if p == s || !ready[p] {
						continue
					}
					if nodes[p].Lookup(req.ID) != cache.Miss {
						nodes[p].Serve(req) // the sibling serves the bytes: recency touch
						cw.peerFills++
						lat = cc.PeerLatency
						break
					}
				}
				if lat == cc.OriginLatency {
					cw.origin++
				}
			}
			if lat <= cc.Deadline {
				cw.onTime++
			}
		}

		rep.Rebalance()
		rep.Stats(repStats[:])
		cw.hotObjects = int(repStats[lb.RsHotObjects])
		cw.maxFactor = int(repStats[lb.RsMaxFactor])
		res.Windows = append(res.Windows, cw)
	}

	if res.DrainWindow > 0 && res.DrainWindow <= len(res.Windows) {
		res.PreDrainOHR = res.Windows[res.DrainWindow-1].ohr()
	}
	if n := len(res.Windows); n > 0 {
		res.FinalOHR = res.Windows[n-1].ohr()
	}
	return res, nil
}

// ClusterReport runs the cluster chaos schedule and tabulates the per-window
// trajectory: per-node OHR, cluster OHR, goodput, peer fills, origin fetches,
// failovers, and the replication surface.
func ClusterReport(cc ClusterConfig) (*Report, error) {
	cc = cc.withDefaults()
	cr, err := RunCluster(cc)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title: fmt.Sprintf("Cluster chaos: %d-node edge, node %d drains at request %d (window %d)",
			cc.Nodes, cc.DrainNode, cc.DrainAt, cr.DrainWindow),
	}
	rep.Header = []string{"window"}
	for n := 0; n < cc.Nodes; n++ {
		rep.Header = append(rep.Header, fmt.Sprintf("n%d-ohr", n))
	}
	rep.Header = append(rep.Header, "ohr", "goodput", "peerfill", "origin", "failover", "hot", "maxR")
	for w, cw := range cr.Windows {
		row := []string{fmt.Sprint(w)}
		for n := 0; n < cc.Nodes; n++ {
			if cw.nodeReqs[n] == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f4(float64(cw.nodeHits[n])/float64(cw.nodeReqs[n])))
		}
		row = append(row, f4(cw.ohr()), f4(cw.goodput()),
			fmt.Sprint(cw.peerFills), fmt.Sprint(cw.origin), fmt.Sprint(cw.failovers),
			fmt.Sprint(cw.hotObjects), fmt.Sprint(cw.maxFactor))
		rep.AddRow(row...)
	}
	rep.AddNote("pre-drain OHR %s (window %d), final OHR %s, recovery %.0f%% (bar: 90%%)",
		f4(cr.PreDrainOHR), cr.DrainWindow-1, f4(cr.FinalOHR), 100*cr.Recovery())
	rep.AddNote("drain: node %d stops accepting and leaves peer fill at request %d; its ring weight drops to 0 at the window-%d boundary (failovers cover the gap)",
		cc.DrainNode, cc.DrainAt, cr.DrainWindow+1)
	rep.AddNote("peer fill probes %d ring successors before the origin hop; replication pre-warms the hot set on successors (hot/maxR columns)",
		cc.PeerFanout)
	rep.AddNote("goodput: modeled latencies hit=%v peer=%v origin=%v against a %v deadline — only origin hops are late",
		cc.HitLatency, cc.PeerLatency, cc.OriginLatency, cc.Deadline)
	return rep, nil
}
