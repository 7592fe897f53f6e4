package exp

import (
	"strings"
	"testing"

	"darwin/internal/lb"
)

// TestClusterRecovery is the acceptance bar, on the deployed Front and nodes:
// after node 0 drains mid-flood, cluster OHR recovers to >= 90% of its
// pre-drain level, no client request fails, peer fills and adaptive
// replication are visibly at work, the drain's handoff frame lands, and the
// drained node holds zero ring weight — and so takes no traffic and causes no
// failover — from the first boundary after the drain.
func TestClusterRecovery(t *testing.T) {
	cc := DefaultClusterConfig()
	cr, err := RunCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	if got := cr.Recovery(); got < 0.9 {
		t.Fatalf("cluster OHR recovery %.3f < 0.9 (pre-drain %.4f, final %.4f)",
			got, cr.PreDrainOHR, cr.FinalOHR)
	}
	if len(cr.Windows) != (cc.TraceLen+cc.WindowLen-1)/cc.WindowLen {
		t.Fatalf("got %d windows for %d requests / %d", len(cr.Windows), cc.TraceLen, cc.WindowLen)
	}
	var fills, maxR int
	for w, cw := range cr.Windows {
		fills += cw.peerFills
		if cw.maxFactor > maxR {
			maxR = cw.maxFactor
		}
		if cw.errors != 0 {
			t.Errorf("window %d: %d client requests failed", w, cw.errors)
		}
	}
	if fills == 0 {
		t.Fatal("no peer fills across the whole run")
	}
	if maxR < 2 {
		t.Fatalf("adaptive replication never widened an object (maxR=%d)", maxR)
	}
	if maxR > lb.MaxReplicas {
		t.Fatalf("maxR=%d exceeds MaxReplicas", maxR)
	}
	if cr.StateMerges != 1 {
		t.Fatalf("%d handoff frames merged by the drained node's successors, want 1", cr.StateMerges)
	}

	// The drain window itself must show in-request failover (the listener
	// closes before the boundary); afterwards the drained node has no weight,
	// so nothing is routed to it and nothing needs to fail over.
	dw := cr.DrainWindow
	if cr.Windows[dw].failovers == 0 {
		t.Fatalf("window %d has no failovers despite a mid-window drain", dw)
	}
	if len(cr.Windows) <= dw+1 {
		t.Fatal("no post-drain windows: DrainAt too close to trace end")
	}
	for w := dw + 1; w < len(cr.Windows); w++ {
		cw := cr.Windows[w]
		if cw.drainWeight != 0 {
			t.Errorf("window %d: drained node holds ring weight %v, want 0", w, cw.drainWeight)
		}
		if cw.nodeReqs[0] != 0 || cw.failovers != 0 {
			t.Errorf("window %d: %d requests reached the drained node, %d failed over", w, cw.nodeReqs[0], cw.failovers)
		}
	}
}

// smallCluster is the cluster schedule at test scale.
func smallCluster() ClusterConfig {
	cc := DefaultClusterConfig()
	cc.WindowLen, cc.TraceLen, cc.DrainAt = 500, 4_000, 1_700
	return cc
}

// TestClusterReportDeterministic pins byte-reproducibility: the rig runs real
// HTTP between real goroutines, yet two runs of the report render identically,
// and identically to testdata/cluster.golden.
func TestClusterReportDeterministic(t *testing.T) {
	rep := sameTwiceGolden(t, "cluster", func() (*Report, error) { return ClusterReport(smallCluster()) })
	for _, want := range []string{"recovery", "peerfill", "failover", "maxR"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}
