package exp

// Flap chaos: the self-healing membership experiment, three arms on the rig
// (rig.go) — deployed nodes behind a deployed server.Front, time on the
// simulated clock — so the report is byte-reproducible run to run:
//
//  1. Flap detector: the front's probe path to one node cycles 1 s up / 1 s
//     down. Under the deployed detector tuning the front must never shed the
//     node's full ring weight (hysteresis: a flap costs at most the suspect
//     slice); the contrast arm runs the same front with the hysteresis tuned
//     out (one threshold, no dwell) and sheds once per down phase.
//  2. Asymmetric partition: the front's probe path to one node is severed
//     while the node keeps serving and keeps gossiping with its peers over
//     the peer-probe path. Whatever heartbeats the peers relay are all the
//     front hears of it. The contrast arm deploys the same nodes without
//     -peers: no /gossip, no relay, the front polls /readyz and the detector
//     walks the silent node to dead.
//  3. Drain handoff: a warmed node drains and pushes its DRWNCKPT frame
//     through its ring successor's /state; the successor then replays the
//     donor's traffic. The contrast arm drains a donor that never served.

import (
	"fmt"
	"time"

	"darwin/internal/cache"
	"darwin/internal/gossip"
	"darwin/internal/trace"
)

// FlapConfig sizes the three arms.
type FlapConfig struct {
	// Arm 1: the probe path to node 0 cycles FlapUp up then FlapDown down,
	// for FlapCycles cycles (defaults 1 s / 1 s / 15).
	FlapUp, FlapDown time.Duration
	FlapCycles       int

	// Arm 2: the front's probe path to the last of the flapNodes nodes is
	// severed after PrefaultReqs requests and stays severed for FaultReqs
	// requests.
	PrefaultReqs int
	FaultReqs    int

	// Arm 3: the donor serves WarmWindows windows of WindowLen requests, then
	// drains; its successor replays ReplayWindows more.
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

// flapNodes is the cluster size of arms 1 and 2 (arm 3 is a donor and its
// successor).
const flapNodes = 3

// DefaultFlapConfig returns the benchmark-scale flap schedule.
func DefaultFlapConfig() FlapConfig {
	return FlapConfig{
		FlapUp:        1 * time.Second,
		FlapDown:      1 * time.Second,
		FlapCycles:    15,
		PrefaultReqs:  12_000,
		FaultReqs:     12_000,
		WindowLen:     2000,
		WarmWindows:   6,
		ReplayWindows: 8,
		Expert:        cache.Expert{Freq: 1, MaxSize: 1 << 20},
		Eval:          cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20},
		Mix:           50,
		Seed:          7,
	}
}

// FlapDetectorOutcome is arm 1's result for one detector tuning.
type FlapDetectorOutcome struct {
	// FullSheds counts the flapping node's transitions to Dead at the front
	// (zero ring weight).
	FullSheds int
	// SuspectSpells counts its entries into Suspect.
	SuspectSpells int
	// PeakPhi is the highest suspicion level the flap ever reached.
	PeakPhi float64
}

// PartitionOutcome is arm 2's result for one deployment.
type PartitionOutcome struct {
	// PreOHR and FaultOHR are the client-observed hit ratios over the steady
	// half of the pre-fault phase and the whole fault phase; Retention is
	// their ratio (the acceptance bar is >= 0.9 for the gossip arm).
	PreOHR, FaultOHR, Retention float64
	// Client5xx counts 5xx answers the client saw.
	Client5xx int
	// ShedWindows / SuspectWindows count fault-phase routing windows in which
	// the partitioned node held zero / partial weight at the front.
	ShedWindows, SuspectWindows int
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
	Graded, NoHysteresis FlapDetectorOutcome
	Gossip, Readyz       PartitionOutcome
	Handoff              HandoffOutcome
}

// noHysteresis is arm 1's contrast tuning of the deployed detector: suspect
// and dead share one threshold a single missed probe crosses, and the dwell
// is a nanosecond.
var noHysteresis = gossip.Config{PhiSuspect: 0.5, PhiDead: 0.5, MinDwell: 1}

// runFlapArm drives arm 1: the front's probe path to node 0 flapping on a
// fixed duty cycle, graded by the front's detector under the given tuning.
func runFlapArm(fc FlapConfig, detector gossip.Config) (FlapDetectorOutcome, error) {
	var out FlapDetectorOutcome
	r := newRig()
	defer r.close()
	nodes, err := r.startNodes(flapNodes, r.nodeConfig(fc.Expert, fc.Eval), true)
	if err != nil {
		return out, err
	}
	detector.OnChange = func(node int, from, to gossip.Status) {
		if node != 0 {
			return
		}
		switch to {
		case gossip.Dead:
			out.FullSheds++
		case gossip.Suspect:
			out.SuspectSpells++
		}
	}
	if err := r.startFront(nodes, fc.WindowLen, detector); err != nil {
		return out, err
	}
	tick := time.Duration(rigProbeStride()) * rigPerRequest
	period := fc.FlapUp + fc.FlapDown
	for t := time.Duration(0); t < time.Duration(fc.FlapCycles)*period; t += tick {
		r.severed = ""
		if t%period >= fc.FlapUp {
			r.severed = nodes[0].url
		}
		r.probe() // every probe round also grades every backend
		if phi := r.front.Membership().Phi(0); phi > out.PeakPhi {
			out.PeakPhi = phi
		}
		r.clk.Advance(tick)
	}
	return out, nil
}

// runPartitionArm drives arm 2 once: a cluster under an asymmetric partition
// of the front's probe path to one node. peered deploys the nodes as one
// cluster (-peers: /gossip, peer fill, relayed heartbeats); otherwise each
// node stands alone and the front can only poll its /readyz.
func runPartitionArm(fc FlapConfig, peered bool) (PartitionOutcome, error) {
	var out PartitionOutcome
	tr, err := SyntheticMix(fc.Mix, fc.PrefaultReqs+fc.FaultReqs, fc.Seed)
	if err != nil {
		return out, err
	}
	stride := rigProbeStride()
	r := newRig()
	defer r.close()
	nodes, err := r.startNodes(flapNodes, r.nodeConfig(fc.Expert, fc.Eval), peered)
	if err != nil {
		return out, err
	}
	// One routing window per probe round, so every probe verdict reaches the
	// ring at once.
	if err := r.startFront(nodes, stride, gossip.Config{}); err != nil {
		return out, err
	}
	var preHits, preReqs, faultHits, faultReqs int
	for i, req := range tr.Requests {
		fault := i >= fc.PrefaultReqs
		if i%stride == 0 {
			r.severed = ""
			if fault {
				r.severed = nodes[flapNodes-1].url
			}
			r.probe()
		}
		s, err := r.get(r.frontSrv.URL, req)
		if err != nil {
			return out, fmt.Errorf("exp: request %d: %w", i, err)
		}
		if fault && i%stride == 0 {
			switch w := r.front.Weights()[flapNodes-1]; {
			case w == 0:
				out.ShedWindows++
			case w < 1:
				out.SuspectWindows++
			}
		}
		if s.status >= 500 {
			out.Client5xx++
		}
		hit := s.local() || s.peer
		if fault {
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

// runHandoff drives arm 3 once on a two-node cluster: node 0 (the donor)
// serves the warm windows when warm is set, then drains — its listener
// closes and it pushes its checkpoint frame through node 1's /state — and
// node 1, its ring successor, replays the remaining windows. Returns the
// donor's and the inheritor's per-window hit ratios.
func runHandoff(fc FlapConfig, tr *trace.Trace, warm bool) (donor, heir []float64, err error) {
	r := newRig()
	defer r.close()
	nodes, err := r.startNodes(2, r.nodeConfig(fc.Expert, fc.Eval), true)
	if err != nil {
		return nil, nil, err
	}
	warmLen := fc.WarmWindows * fc.WindowLen
	if warm {
		if _, donor, err = r.replay(nodes[0].url, tr.Requests[:warmLen], fc.WindowLen); err != nil {
			return nil, nil, err
		}
	}
	nodes[0].Health.StartDrain()
	nodes[0].depart()
	if st := nodes[1].Proxy.Stats(); st.StateMerges != 1 || st.StateRejects != 0 {
		return nil, nil, fmt.Errorf("exp: inheritor merged %d frames and rejected %d, want 1 and 0", st.StateMerges, st.StateRejects)
	}
	_, heir, err = r.replay(nodes[1].url, tr.Requests[warmLen:], fc.WindowLen)
	return donor, heir, err
}

// runHandoffArm drives arm 3: the inheritor of a warmed donor against the
// inheritor of a donor that never served.
func runHandoffArm(fc FlapConfig) (HandoffOutcome, error) {
	var out HandoffOutcome
	tr, err := SyntheticMix(fc.Mix, (fc.WarmWindows+fc.ReplayWindows)*fc.WindowLen, fc.Seed+1)
	if err != nil {
		return out, err
	}
	donor, warm, err := runHandoff(fc, tr, true)
	if err != nil {
		return out, err
	}
	_, cold, err := runHandoff(fc, tr, false)
	if err != nil {
		return out, err
	}
	out.DonorOHR = donor[len(donor)-1]
	out.WarmFirstOHR, out.WarmWindows = warm[0], windowsTo(warm, 0.95*out.DonorOHR)
	out.ColdFirstOHR, out.ColdWindows = cold[0], windowsTo(cold, 0.95*out.DonorOHR)
	return out, nil
}

// RunFlap drives all three arms and returns the aggregate result.
func RunFlap(fc FlapConfig) (*FlapResult, error) {
	res := &FlapResult{}
	var err error
	if res.Graded, err = runFlapArm(fc, gossip.Config{}); err != nil {
		return nil, err
	}
	if res.NoHysteresis, err = runFlapArm(fc, noHysteresis); err != nil {
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
	res, err := RunFlap(fc)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title: fmt.Sprintf("Flap chaos: graded membership on the deployed front and nodes (%d nodes, probe %v)",
			flapNodes, time.Duration(rigProbeStride())*rigPerRequest),
		Header: []string{"arm", "metric", "value", "bar"},
	}
	rep.AddRow("flap/graded", "full-weight sheds", fmt.Sprint(res.Graded.FullSheds), "0")
	rep.AddRow("flap/graded", "suspect spells", fmt.Sprint(res.Graded.SuspectSpells), "-")
	rep.AddRow("flap/graded", "peak phi", f2(res.Graded.PeakPhi), fmt.Sprintf("< %g (dead)", 8.0))
	rep.AddRow("flap/no-hysteresis", "full-weight sheds", fmt.Sprint(res.NoHysteresis.FullSheds), ">= 3")
	rep.AddRow("partition/gossip", "ohr retention", f4(res.Gossip.Retention), ">= 0.9")
	rep.AddRow("partition/gossip", "client 5xx", fmt.Sprint(res.Gossip.Client5xx), "0")
	rep.AddRow("partition/gossip", "shed windows", fmt.Sprint(res.Gossip.ShedWindows), "0")
	rep.AddRow("partition/gossip", "suspect windows", fmt.Sprint(res.Gossip.SuspectWindows), "-")
	rep.AddRow("partition/readyz", "ohr retention", f4(res.Readyz.Retention), "(contrast)")
	rep.AddRow("partition/readyz", "shed windows", fmt.Sprint(res.Readyz.ShedWindows), "(contrast)")
	rep.AddRow("handoff/donor", "steady ohr", f4(res.Handoff.DonorOHR), "-")
	rep.AddRow("handoff/warm", "windows to 95%", fmt.Sprint(res.Handoff.WarmWindows), "1")
	rep.AddRow("handoff/warm", "first-window ohr", f4(res.Handoff.WarmFirstOHR), "-")
	rep.AddRow("handoff/cold", "windows to 95%", fmt.Sprint(res.Handoff.ColdWindows), ">= 4 (or never)")
	rep.AddRow("handoff/cold", "first-window ohr", f4(res.Handoff.ColdFirstOHR), "-")
	rep.AddNote("flap: the front's probe path to node 0 cycles %v up / %v down for %d cycles; no-hysteresis is the same front with PhiSuspect = PhiDead = %g and a %v dwell",
		fc.FlapUp, fc.FlapDown, fc.FlapCycles, noHysteresis.PhiDead, noHysteresis.MinDwell)
	rep.AddNote("partition: the front cannot probe node %d for %d requests; gossip nodes relay its heartbeats on their peer probes, readyz nodes run without -peers",
		flapNodes-1, fc.FaultReqs)
	rep.AddNote("handoff: the donor's DRWNCKPT frame goes through its ring successor's /state (DC then HOC, hot core most protected) before replay; cold is a donor that never served")
	rep.AddNote("deployed server.Front and nodes on loopback, %v simulated per request: the report is byte-reproducible", rigPerRequest)
	return rep, nil
}
