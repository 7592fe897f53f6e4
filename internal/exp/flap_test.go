package exp

import (
	"strings"
	"testing"
)

// TestFlapAcceptance holds the three self-healing arms to their bars on the
// deployed front and nodes (simulated clock, real handlers):
//
//  1. a probe path flapping 1 s up / 1 s down never costs the node its full
//     ring weight under the deployed detector, versus >= 3 full sheds with
//     the hysteresis tuned out;
//  2. an asymmetric partition of the front's probe path keeps cluster OHR at
//     >= 90% of the pre-fault level with zero client 5xx;
//  3. the drain handoff warms the inheritor to >= 95% of the donor's OHR
//     within one window, versus >= 4 windows (or never) cold.
//
// One bar is a recorded miss, not a pass: see the partition arm below.
func TestFlapAcceptance(t *testing.T) {
	fc := DefaultFlapConfig()
	res, err := RunFlap(fc)
	if err != nil {
		t.Fatal(err)
	}

	// Arm 1: flap detector.
	if res.Graded.FullSheds != 0 {
		t.Errorf("deployed detector shed full weight %d times for a flapping probe path, want 0", res.Graded.FullSheds)
	}
	if res.NoHysteresis.FullSheds < 3 {
		t.Errorf("detector without hysteresis shed only %d times, want >= 3 (the contrast arm)", res.NoHysteresis.FullSheds)
	}
	if res.Graded.SuspectSpells == 0 {
		t.Error("deployed detector never even suspected the flapper; the arm is not exercising phi")
	}
	if res.Graded.PeakPhi >= 8 {
		t.Errorf("peak phi %.2f reached the dead threshold; hysteresis should never get there on a 1s flap", res.Graded.PeakPhi)
	}

	// Arm 2: asymmetric partition.
	if res.Gossip.Retention < 0.9 {
		t.Errorf("gossip arm OHR retention %.4f < 0.9 (pre %.4f, fault %.4f)",
			res.Gossip.Retention, res.Gossip.PreOHR, res.Gossip.FaultOHR)
	}
	if res.Gossip.Client5xx != 0 {
		t.Errorf("gossip arm saw %d client 5xx, want 0", res.Gossip.Client5xx)
	}
	if res.Readyz.ShedWindows == 0 {
		t.Error("readyz arm never shed the partitioned node; the partition is not biting")
	}
	if res.Gossip.ShedWindows >= res.Readyz.ShedWindows {
		t.Errorf("gossip nodes kept the partitioned node shed for %d windows, readyz-only nodes for %d; relayed heartbeats should shorten the outage",
			res.Gossip.ShedWindows, res.Readyz.ShedWindows)
	}
	// The recorded miss (EXPERIMENTS.md, Flap): the bar is 0 shed windows, and
	// the model this arm used to run met it by exchanging digests over the
	// full node mesh every probe round. Deployed nodes gossip only on peer
	// probes, which a miss sends only when bounded loads or replication
	// routed the object off its primary — too sparse to keep phi down for the
	// whole partition. If this fails because the count reached 0, the relay
	// was fixed: restore the bar.
	if res.Gossip.ShedWindows == 0 {
		t.Error("gossip arm shed the partitioned node for 0 windows: the recorded miss has healed, make the 0 bar an assertion again")
	}

	// Arm 3: drain handoff.
	if res.Handoff.WarmWindows != 1 {
		t.Errorf("warm inheritor took %d windows to reach 95%% of donor OHR, want 1", res.Handoff.WarmWindows)
	}
	if res.Handoff.ColdWindows != 0 && res.Handoff.ColdWindows < 4 {
		t.Errorf("cold inheritor warmed in %d windows, want >= 4 or never", res.Handoff.ColdWindows)
	}
	if res.Handoff.WarmFirstOHR <= res.Handoff.ColdFirstOHR {
		t.Errorf("warm first-window OHR %.4f <= cold %.4f; the handoff transferred nothing",
			res.Handoff.WarmFirstOHR, res.Handoff.ColdFirstOHR)
	}
}

// smallFlap is the flap schedule at test scale.
func smallFlap() FlapConfig {
	fc := DefaultFlapConfig()
	fc.FlapCycles = 3
	fc.PrefaultReqs, fc.FaultReqs = 1_500, 1_500
	fc.WindowLen, fc.WarmWindows, fc.ReplayWindows = 500, 2, 2
	return fc
}

// TestFlapReportDeterministic pins byte-reproducibility: two runs of all
// three arms over real HTTP render identically, and identically to
// testdata/flap.golden.
func TestFlapReportDeterministic(t *testing.T) {
	rep := sameTwiceGolden(t, "flap", func() (*Report, error) { return FlapReport(smallFlap()) })
	for _, want := range []string{"full-weight sheds", "ohr retention", "windows to 95%", "client 5xx"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}
