package exp

// Cluster chaos: the distributed-edge experiment (§2.1: a balancer
// re-weighting servers shifts every survivor's mix). A seeded trace floods a
// deployed server.Front over N deployed, peer-filling nodes on the rig
// (rig.go). Mid-flood one node drains exactly as a SIGTERM drains it — the
// verdict flips to 503, the listener stays up for the lame-duck window, then
// closes, then the node hands its learned state to its ring successor — and
// the report tracks per-window, per-node OHR through the dip and recovery:
// replication has pre-warmed the hot set on ring successors, peer fill
// re-warms the survivors from each other, and the successor inherits the
// drained node's residency, so cluster OHR climbs back toward its pre-drain
// level without the drained node ever returning.
//
// Routing, failover, peer fill, membership grading and the handoff are the
// deployed code's; this file only schedules and counts.

import (
	"fmt"

	"darwin/internal/cache"
	"darwin/internal/gossip"
	"darwin/internal/server"
	"darwin/internal/tracegen"
)

// ClusterConfig sizes the cluster chaos experiment: clusterNodes nodes
// serving the rig workload (rig.go).
type ClusterConfig struct {
	// WindowLen is the rebalance window length in requests: the front's
	// weights, budgets and replication factors refresh at each boundary.
	WindowLen int
	// Node 0 starts draining at request index DrainAt — mid-window, so the
	// tail of that window shows in-request failover before the boundary
	// strips the node's weight.
	DrainAt int
	// TraceLen is the replayed trace's length.
	TraceLen int
}

// clusterNodes is the cluster size.
const clusterNodes = 3

// DefaultClusterConfig returns the reported cluster schedule: 12 windows of
// 2000 requests, node 0 draining mid-window 5.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		WindowLen: 2000,
		DrainAt:   11_000,
		TraceLen:  24_000,
	}
}

// clusterWindow accumulates one rebalance window's cluster outcome.
type clusterWindow struct {
	reqs      int
	local     int   // client saw a hit in the answering node's HOC or DC
	peerFills int   // client saw a miss filled from a ring sibling
	errors    int   // client saw anything but a 200
	origin    int64 // requests the origin served
	failovers int64 // relay attempts beyond a request's first, plus candidates skipped on an open breaker

	// drainWeight is the ring weight the front gave node 0 for this window.
	drainWeight float64
	// nodeReqs / nodeHits are each node's own books (client requests plus the
	// sibling probes it answered with a hit).
	nodeReqs [clusterNodes]int64
	nodeHits [clusterNodes]int64

	hotObjects int // the front's replication stats at the window's close
	maxFactor  int
}

func (w clusterWindow) ohr() float64 {
	if w.reqs == 0 {
		return 0
	}
	return float64(w.local+w.peerFills) / float64(w.reqs)
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
	// StateMerges counts handoff frames the drained node's ring successors
	// accepted on /state (1: the drain pushed, the inheritor merged).
	StateMerges int64
}

// Recovery returns FinalOHR / PreDrainOHR (0 when the pre-drain OHR is 0).
func (r *ClusterResult) Recovery() float64 {
	if r.PreDrainOHR == 0 {
		return 0
	}
	return r.FinalOHR / r.PreDrainOHR
}

// RunCluster replays the seeded trace through the deployed cluster and
// returns the windowed trajectory.
func RunCluster(cc ClusterConfig) (*ClusterResult, error) {
	tr, err := tracegen.ImageDownloadMix(rigMix, cc.TraceLen, rigSeed)
	if err != nil {
		return nil, err
	}
	origin := &server.Origin{}
	r := newRig(origin)
	defer r.close()
	nodes, err := r.startNodes(clusterNodes, r.nodeConfig(rigExpert, rigEval), true)
	if err != nil {
		return nil, err
	}
	if err := r.startFront(nodes, cc.WindowLen, gossip.Config{}); err != nil {
		return nil, err
	}

	probeEvery := rigProbeStride()
	departAt := cc.DrainAt + int(rigLameDuck/rigPerRequest)
	res := &ClusterResult{DrainWindow: cc.DrainAt / cc.WindowLen}
	var cw *clusterWindow
	var lastOrigin int64
	lastFront := r.front.Stats()
	var lastNode [clusterNodes]cache.Metrics
	closeWindow := func() {
		if cw == nil {
			return
		}
		originReqs, _ := origin.Stats()
		cw.origin, lastOrigin = originReqs-lastOrigin, originReqs
		fs := r.front.Stats()
		cw.failovers = (fs.Failovers - lastFront.Failovers) + (fs.BreakerRejects - lastFront.BreakerRejects)
		lastFront = fs
		for n, rn := range nodes {
			m := rn.Proxy.Metrics()
			d := m.Sub(lastNode[n])
			lastNode[n] = m
			cw.nodeReqs[n], cw.nodeHits[n] = d.Requests, d.HOCHits+d.DCHits
		}
		rs := r.front.ReplicationStats()
		cw.hotObjects, cw.maxFactor = int(rs.HotObjects), int(rs.MaxFactor)
		res.Windows = append(res.Windows, *cw)
	}
	for i, req := range tr.Requests {
		switch i {
		case cc.DrainAt:
			nodes[0].Health.StartDrain()
		case departAt:
			nodes[0].depart()
		}
		if i%probeEvery == 0 {
			r.probe()
		}
		if i%cc.WindowLen == 0 {
			closeWindow()
			cw = &clusterWindow{}
		}
		s, err := r.get(r.frontSrv.URL, req)
		if err != nil {
			return nil, fmt.Errorf("exp: request %d: %w", i, err)
		}
		if i%cc.WindowLen == 0 {
			// The window's first request made the ring re-read every
			// backend's readiness; these are the weights it runs on.
			cw.drainWeight = r.front.Weights()[0]
		}
		cw.reqs++
		switch {
		case s.status != 200:
			cw.errors++
		case s.local():
			cw.local++
		case s.peer:
			cw.peerFills++
		}
	}
	closeWindow()

	for _, rn := range nodes[1:] {
		res.StateMerges += rn.Proxy.Stats().StateMerges
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
// trajectory: per-node OHR, cluster OHR, peer fills, origin fetches,
// failovers, the drain node's ring weight, and the replication surface.
func ClusterReport(cc ClusterConfig) (*Report, error) {
	cr, err := RunCluster(cc)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title: fmt.Sprintf("Cluster chaos: %d-node edge behind the front tier, node 0 drains at request %d (window %d)",
			clusterNodes, cc.DrainAt, cr.DrainWindow),
	}
	rep.Header = []string{"window"}
	for n := 0; n < clusterNodes; n++ {
		rep.Header = append(rep.Header, fmt.Sprintf("n%d-ohr", n))
	}
	rep.Header = append(rep.Header, "ohr", "peerfill", "origin", "failover", "errors", "n0-wt", "hot", "maxR")
	for w, cw := range cr.Windows {
		row := []string{fmt.Sprint(w)}
		for n := 0; n < clusterNodes; n++ {
			if cw.nodeReqs[n] == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f4(float64(cw.nodeHits[n])/float64(cw.nodeReqs[n])))
		}
		row = append(row, f4(cw.ohr()),
			fmt.Sprint(cw.peerFills), fmt.Sprint(cw.origin), fmt.Sprint(cw.failovers), fmt.Sprint(cw.errors),
			fmt.Sprint(cw.drainWeight), fmt.Sprint(cw.hotObjects), fmt.Sprint(cw.maxFactor))
		rep.AddRow(row...)
	}
	rep.AddNote("pre-drain OHR %s (window %d), final OHR %s, recovery %.0f%% (bar: 90%%)",
		f4(cr.PreDrainOHR), cr.DrainWindow-1, f4(cr.FinalOHR), 100*cr.Recovery())
	rep.AddNote("drain: node 0's verdict flips to 503 at request %d, its listener closes %v later and it pushes its state to its ring successor (%d frame merged); its ring weight is 0 from the window-%d boundary (failovers cover the gap)",
		cc.DrainAt, rigLameDuck, cr.StateMerges, cr.DrainWindow+1)
	rep.AddNote("ohr counts what the client saw: X-Cache hits plus X-Darwin-Peer fills; n*-ohr are each node's own books (client requests plus sibling probes it answered)")
	rep.AddNote("deployed server.Front over deployed nodes on loopback; %v simulated per request, front probed every %d requests", rigPerRequest, rigProbeStride())
	return rep, nil
}
