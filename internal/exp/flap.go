package exp

// Flap chaos: the self-healing membership experiment. Three arms, all driven
// on a simulated clock at the gossip.Membership level — no HTTP, no wall
// clock — so the report is byte-reproducible run to run (the determinism lint
// rule holds with no carve-outs):
//
//  1. Flap detector: a node cycling 1 s up / 1 s down under the graded
//     phi-accrual detector versus the binary /readyz verdict. The graded arm
//     must shed full ring weight zero times (hysteresis: a flap costs at most
//     the suspect slice); the binary arm sheds once per down phase.
//  2. Asymmetric partition: the front's probe path to one node is severed
//     while the node keeps gossiping with its peers. Relayed heartbeat
//     digests keep the partitioned node alive at the front, so the cluster
//     retains its object hit ratio; the binary arm sheds the node and pays
//     the redistribution cold-start.
//  3. Drain handoff: a drained node's cache residency (the DRWNCKPT payload,
//     here the in-process state) merges into its ring successor, which then
//     reaches the donor's steady hit ratio within one window; a cold
//     inheritor needs several.

import (
	"fmt"
	"time"

	"darwin/internal/cache"
	"darwin/internal/gossip"
	"darwin/internal/lb"
)

// simClock is the experiment's injected time source: it only moves when the
// simulation advances it.
type simClock struct{ now time.Time }

func newSimClock() *simClock { return &simClock{now: time.Unix(0, 0)} }

func (c *simClock) Now() time.Time          { return c.now }
func (c *simClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// FlapConfig sizes the three arms.
type FlapConfig struct {
	// ProbeEvery is the front tier's probe cadence (default 250 ms), shared
	// by all arms as the heartbeat period.
	ProbeEvery time.Duration

	// Arm 1: the watched node cycles FlapUp up then FlapDown down, for
	// FlapCycles cycles (defaults 1 s / 1 s / 15).
	FlapUp, FlapDown time.Duration
	FlapCycles       int

	// Arm 2: Nodes-node cluster (default 3); the front's probe path to
	// PartitionNode is severed after PrefaultReqs requests and stays severed
	// for FaultReqs requests. PerRequest is the simulated inter-request gap.
	Nodes         int
	PartitionNode int
	PrefaultReqs  int
	FaultReqs     int
	PerRequest    time.Duration

	// Arm 3: the donor runs WarmWindows windows of WindowLen requests, then
	// drains; warm and cold inheritors replay ReplayWindows more.
	WindowLen     int
	WarmWindows   int
	ReplayWindows int

	// Expert and Eval fix each node's admission expert and level capacities.
	Expert cache.Expert
	Eval   cache.EvalConfig
	// Mix and Seed generate the seeded traces.
	Mix  int
	Seed int64
}

// DefaultFlapConfig returns the benchmark-scale flap schedule.
func DefaultFlapConfig() FlapConfig {
	return FlapConfig{
		ProbeEvery:    250 * time.Millisecond,
		FlapUp:        1 * time.Second,
		FlapDown:      1 * time.Second,
		FlapCycles:    15,
		Nodes:         3,
		PartitionNode: 2,
		PrefaultReqs:  12_000,
		FaultReqs:     12_000,
		PerRequest:    1 * time.Millisecond,
		WindowLen:     2000,
		WarmWindows:   6,
		ReplayWindows: 8,
		Expert:        cache.Expert{Freq: 1, MaxSize: 1 << 20},
		Eval:          cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20},
		Mix:           50,
		Seed:          7,
	}
}

func (c FlapConfig) withDefaults() FlapConfig {
	d := DefaultFlapConfig()
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = d.ProbeEvery
	}
	if c.FlapUp <= 0 || c.FlapDown <= 0 {
		c.FlapUp, c.FlapDown = d.FlapUp, d.FlapDown
	}
	if c.FlapCycles <= 0 {
		c.FlapCycles = d.FlapCycles
	}
	if c.Nodes <= 1 {
		c.Nodes = d.Nodes
	}
	if c.PartitionNode <= 0 || c.PartitionNode >= c.Nodes {
		c.PartitionNode = c.Nodes - 1
	}
	if c.PrefaultReqs <= 0 || c.FaultReqs <= 0 {
		c.PrefaultReqs, c.FaultReqs = d.PrefaultReqs, d.FaultReqs
	}
	if c.PerRequest <= 0 {
		c.PerRequest = d.PerRequest
	}
	if c.WindowLen <= 0 {
		c.WindowLen = d.WindowLen
	}
	if c.WarmWindows <= 0 || c.ReplayWindows <= 0 {
		c.WarmWindows, c.ReplayWindows = d.WarmWindows, d.ReplayWindows
	}
	if c.Eval.HOCBytes <= 0 {
		c.Eval = d.Eval
	}
	if c.Expert == (cache.Expert{}) {
		c.Expert = d.Expert
	}
	if c.Mix <= 0 {
		c.Mix = d.Mix
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// FlapDetectorOutcome is arm 1's result for one detector.
type FlapDetectorOutcome struct {
	// FullSheds counts transitions to zero ring weight.
	FullSheds int
	// SuspectSpells counts entries into the graded Suspect state (always 0
	// for the binary detector, which has no intermediate grade).
	SuspectSpells int
	// PeakPhi is the highest suspicion level the flap ever reached.
	PeakPhi float64
}

// PartitionOutcome is arm 2's result for one readiness scheme.
type PartitionOutcome struct {
	// PreOHR and FaultOHR are the cluster hit ratios over the steady half of
	// the pre-fault phase and the whole fault phase; Retention is their
	// ratio (the acceptance bar is >= 0.9 for the gossip arm).
	PreOHR, FaultOHR, Retention float64
	// Client5xx counts requests routed to a node that could not serve them.
	Client5xx int
	// ShedWindows counts routing windows in which the partitioned node held
	// zero weight at the front.
	ShedWindows int
}

// HandoffOutcome is arm 3's result.
type HandoffOutcome struct {
	// DonorOHR is the donor's steady hit ratio (its last warm window).
	DonorOHR float64
	// WarmWindows / ColdWindows are how many replay windows each inheritor
	// needed to reach 95% of DonorOHR (0 = never).
	WarmWindows, ColdWindows int
	// WarmFirstOHR / ColdFirstOHR are each inheritor's first-window OHR.
	WarmFirstOHR, ColdFirstOHR float64
}

// FlapResult aggregates all three arms.
type FlapResult struct {
	Graded, Binary FlapDetectorOutcome
	Gossip, Readyz PartitionOutcome
	Handoff        HandoffOutcome
}

// runFlapArm drives arm 1: one watched node flapping on a fixed duty cycle,
// graded and binary detectors observing the same probe outcomes.
func runFlapArm(fc FlapConfig) (graded, binary FlapDetectorOutcome, err error) {
	clk := newSimClock()
	memb, err := gossip.New(gossip.Config{
		Nodes:          1,
		Self:           -1,
		HeartbeatEvery: fc.ProbeEvery,
		Clock:          clk.Now,
		OnChange: func(node int, from, to gossip.Status) {
			switch to {
			case gossip.Dead:
				graded.FullSheds++
			case gossip.Suspect:
				graded.SuspectSpells++
			}
		},
	})
	if err != nil {
		return graded, binary, err
	}
	period := fc.FlapUp + fc.FlapDown
	total := time.Duration(fc.FlapCycles) * period
	var seq uint64
	binaryUp := true
	for t := time.Duration(0); t < total; t += fc.ProbeEvery {
		up := t%period < fc.FlapUp
		if up {
			seq++
			memb.Heartbeat(0, seq)
		}
		if phi := memb.Phi(0); phi > graded.PeakPhi {
			graded.PeakPhi = phi
		}
		memb.Status(0) // drive the graded state machine every probe tick
		if binaryUp && !up {
			binary.FullSheds++ // the binary verdict sheds on the first missed probe
		}
		binaryUp = up
		clk.Advance(fc.ProbeEvery)
	}
	return graded, binary, nil
}

// runPartitionArm drives arm 2 once: a cluster under an asymmetric partition
// of the front's probe path to one node, routed by the given readiness
// scheme (graded gossip weights or the binary probe verdict).
func runPartitionArm(fc FlapConfig, useGossip bool) (PartitionOutcome, error) {
	var out PartitionOutcome
	tr, err := SyntheticMix(fc.Mix, fc.PrefaultReqs+fc.FaultReqs, fc.Seed)
	if err != nil {
		return out, err
	}

	clk := newSimClock()
	nodes := make([]*cache.Hierarchy, fc.Nodes)
	membs := make([]*gossip.Membership, fc.Nodes)
	for i := range nodes {
		nodes[i], err = cache.New(cache.Config{
			HOCBytes: fc.Eval.HOCBytes, DCBytes: fc.Eval.DCBytes, Expert: fc.Expert,
		})
		if err != nil {
			return out, err
		}
		membs[i], err = gossip.New(gossip.Config{
			Nodes: fc.Nodes, Self: i, HeartbeatEvery: fc.ProbeEvery, Clock: clk.Now,
		})
		if err != nil {
			return out, err
		}
	}
	front, err := gossip.New(gossip.Config{
		Nodes: fc.Nodes, Self: -1, HeartbeatEvery: fc.ProbeEvery, Clock: clk.Now,
	})
	if err != nil {
		return out, err
	}

	// weights is the front's routing view, refreshed at every probe round.
	weights := make([]float64, fc.Nodes)
	for i := range weights {
		weights[i] = 1
	}
	binaryReady := make([]bool, fc.Nodes)
	for i := range binaryReady {
		binaryReady[i] = true
	}

	// probeRound runs one probe tick: full-mesh peer digest exchange (the
	// partition never touches node-to-node edges), then the front probing
	// each node it can reach. Digest answers from reachable peers relay the
	// partitioned node's rising sequence — the indirect heartbeat.
	var scratch []gossip.Entry
	probeRound := func(faultActive bool) {
		for i := 0; i < fc.Nodes; i++ {
			for j := i + 1; j < fc.Nodes; j++ {
				membs[i].Beat()
				scratch = membs[i].Digest(scratch[:0])
				membs[j].Merge(i, scratch)
				membs[j].Beat()
				scratch = membs[j].Digest(scratch[:0])
				membs[i].Merge(j, scratch)
			}
		}
		for j := 0; j < fc.Nodes; j++ {
			reachable := !(faultActive && j == fc.PartitionNode)
			if reachable {
				membs[j].Beat()
				scratch = membs[j].Digest(scratch[:0])
				front.Merge(j, scratch)
			}
			binaryReady[j] = reachable
		}
		for j := 0; j < fc.Nodes; j++ {
			if useGossip {
				weights[j] = front.Weight(j)
			} else if binaryReady[j] {
				weights[j] = 1
			} else {
				weights[j] = 0
			}
		}
	}

	reqsPerProbe := int(fc.ProbeEvery / fc.PerRequest)
	if reqsPerProbe < 1 {
		reqsPerProbe = 1
	}
	ring, err := lb.NewRing(lb.Config{
		Servers:        fc.Nodes,
		VirtualNodes:   64,
		LoadFactor:     0.25,
		RebalanceEvery: reqsPerProbe,
		Readiness: func(window, s int) float64 {
			return weights[s]
		},
	})
	if err != nil {
		return out, err
	}

	var succ [lb.MaxReplicas]int
	width := fc.Nodes
	if width > lb.MaxReplicas {
		width = lb.MaxReplicas
	}
	preHits, preReqs := 0, 0
	faultHits, faultReqs := 0, 0
	window := 0
	for i, req := range tr.Requests {
		faultActive := i >= fc.PrefaultReqs
		if i%reqsPerProbe == 0 {
			probeRound(faultActive)
			end := i + reqsPerProbe
			if end > len(tr.Requests) {
				end = len(tr.Requests)
			}
			ring.BeginWindow(window, end-i)
			if faultActive && weights[fc.PartitionNode] == 0 {
				out.ShedWindows++
			}
			window++
		}
		clk.Advance(fc.PerRequest)

		s := ring.RouteReplicated(req.ID, 1)
		if weights[s] == 0 {
			// In-request failover off a zero-weight node (stale mid-window
			// routing): first positive-weight ring successor takes it.
			k := ring.Successors(req.ID, succ[:width])
			s = -1
			for j := 0; j < k; j++ {
				if weights[succ[j]] > 0 {
					s = succ[j]
					break
				}
			}
			if s < 0 {
				out.Client5xx++
				continue
			}
		}
		// The partition is control-plane only: every node is actually up, so
		// a routed request always gets served — 5xx would require routing to
		// a node with no healthy path at all.
		hit := nodes[s].Serve(req) != cache.Miss
		if faultActive {
			faultReqs++
			if hit {
				faultHits++
			}
		} else if i >= fc.PrefaultReqs/2 {
			// Steady half of the pre-fault phase: skip the cold start.
			preReqs++
			if hit {
				preHits++
			}
		}
	}
	if preReqs > 0 {
		out.PreOHR = float64(preHits) / float64(preReqs)
	}
	if faultReqs > 0 {
		out.FaultOHR = float64(faultHits) / float64(faultReqs)
	}
	if out.PreOHR > 0 {
		out.Retention = out.FaultOHR / out.PreOHR
	}
	return out, nil
}

// runHandoffArm drives arm 3: donor warms, drains, and its residency merges
// into a warm inheritor; a cold inheritor replays the same windows bare.
func runHandoffArm(fc FlapConfig) (HandoffOutcome, error) {
	var out HandoffOutcome
	total := (fc.WarmWindows + fc.ReplayWindows) * fc.WindowLen
	tr, err := SyntheticMix(fc.Mix, total, fc.Seed+1)
	if err != nil {
		return out, err
	}
	mk := func() (*cache.Hierarchy, error) {
		return cache.New(cache.Config{
			HOCBytes: fc.Eval.HOCBytes, DCBytes: fc.Eval.DCBytes, Expert: fc.Expert,
		})
	}
	donor, err := mk()
	if err != nil {
		return out, err
	}

	warmLen := fc.WarmWindows * fc.WindowLen
	hits := 0
	for i := 0; i < warmLen; i++ {
		if i%fc.WindowLen == 0 {
			hits = 0
		}
		if donor.Serve(tr.Requests[i]) != cache.Miss {
			hits++
		}
	}
	out.DonorOHR = float64(hits) / float64(fc.WindowLen)

	// The drain handoff: donor residency (DC first, HOC last so the hot core
	// lands most-protected) merges into the warm inheritor's DC — the
	// in-process equivalent of the DRWNCKPT frame POSTed to /state.
	st, err := donor.State()
	if err != nil {
		return out, err
	}
	entries := append(append([]cache.ResidentObject(nil), st.DC...), st.HOC...)
	warm, err := mk()
	if err != nil {
		return out, err
	}
	if _, err := warm.MergeDC(entries); err != nil {
		return out, err
	}
	cold, err := mk()
	if err != nil {
		return out, err
	}

	target := 0.95 * out.DonorOHR
	replay := func(h *cache.Hierarchy) (firstOHR float64, windows int) {
		for w := 0; w < fc.ReplayWindows; w++ {
			start := warmLen + w*fc.WindowLen
			hits := 0
			for i := start; i < start+fc.WindowLen; i++ {
				if h.Serve(tr.Requests[i]) != cache.Miss {
					hits++
				}
			}
			ohr := float64(hits) / float64(fc.WindowLen)
			if w == 0 {
				firstOHR = ohr
			}
			if windows == 0 && ohr >= target {
				windows = w + 1
			}
		}
		return firstOHR, windows
	}
	out.WarmFirstOHR, out.WarmWindows = replay(warm)
	out.ColdFirstOHR, out.ColdWindows = replay(cold)
	return out, nil
}

// RunFlap drives all three arms and returns the aggregate result.
func RunFlap(fc FlapConfig) (*FlapResult, error) {
	fc = fc.withDefaults()
	res := &FlapResult{}
	var err error
	if res.Graded, res.Binary, err = runFlapArm(fc); err != nil {
		return nil, err
	}
	if res.Gossip, err = runPartitionArm(fc, true); err != nil {
		return nil, err
	}
	if res.Readyz, err = runPartitionArm(fc, false); err != nil {
		return nil, err
	}
	if res.Handoff, err = runHandoffArm(fc); err != nil {
		return nil, err
	}
	return res, nil
}

// FlapReport runs the flap schedule and tabulates all three arms against
// their acceptance bars.
func FlapReport(fc FlapConfig) (*Report, error) {
	fc = fc.withDefaults()
	res, err := RunFlap(fc)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title: fmt.Sprintf("Flap chaos: graded membership vs binary readiness (%d nodes, probe %v)",
			fc.Nodes, fc.ProbeEvery),
		Header: []string{"arm", "metric", "value", "bar"},
	}
	rep.AddRow("flap/graded", "full-weight sheds", fmt.Sprint(res.Graded.FullSheds), "0")
	rep.AddRow("flap/graded", "suspect spells", fmt.Sprint(res.Graded.SuspectSpells), "-")
	rep.AddRow("flap/graded", "peak phi", f2(res.Graded.PeakPhi), fmt.Sprintf("< %g (dead)", 8.0))
	rep.AddRow("flap/binary", "full-weight sheds", fmt.Sprint(res.Binary.FullSheds), ">= 3")
	rep.AddRow("partition/gossip", "ohr retention", f4(res.Gossip.Retention), ">= 0.9")
	rep.AddRow("partition/gossip", "client 5xx", fmt.Sprint(res.Gossip.Client5xx), "0")
	rep.AddRow("partition/gossip", "shed windows", fmt.Sprint(res.Gossip.ShedWindows), "0")
	rep.AddRow("partition/readyz", "ohr retention", f4(res.Readyz.Retention), "(contrast)")
	rep.AddRow("partition/readyz", "shed windows", fmt.Sprint(res.Readyz.ShedWindows), "(contrast)")
	rep.AddRow("handoff/donor", "steady ohr", f4(res.Handoff.DonorOHR), "-")
	rep.AddRow("handoff/warm", "windows to 95%", fmt.Sprint(res.Handoff.WarmWindows), "1")
	rep.AddRow("handoff/warm", "first-window ohr", f4(res.Handoff.WarmFirstOHR), "-")
	rep.AddRow("handoff/cold", "windows to 95%", fmt.Sprint(res.Handoff.ColdWindows), ">= 4 (or never)")
	rep.AddRow("handoff/cold", "first-window ohr", f4(res.Handoff.ColdFirstOHR), "-")
	rep.AddNote("flap: node cycles %v up / %v down for %d cycles; hysteresis holds the flapper at suspect weight, never dead",
		fc.FlapUp, fc.FlapDown, fc.FlapCycles)
	rep.AddNote("partition: front cannot probe node %d for %d requests; peers relay its heartbeats, so gossip keeps it routable",
		fc.PartitionNode, fc.FaultReqs)
	rep.AddNote("handoff: donor residency merges into the inheritor's DC (DC then HOC, hot core most protected) before replay")
	rep.AddNote("all arms run on a simulated clock: the report is byte-reproducible")
	return rep, nil
}
