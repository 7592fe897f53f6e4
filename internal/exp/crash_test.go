package exp

import (
	"strconv"
	"testing"

	"darwin/internal/diskcache"
)

func TestCrashRecoveryReport(t *testing.T) {
	cc := DefaultCrashConfig()
	cc.Sync = diskcache.SyncAlways // nothing in flight at the simulated kill
	rep, err := CrashRecoveryReport(cc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	recovered, cold := rep.Rows[0], rep.Rows[1]
	if recovered[0] != "recovered" || cold[0] != "cold-start" {
		t.Fatalf("arm order: %v / %v", recovered[0], cold[0])
	}

	const recMSCol, objsCol, firstCol = 1, 2, 5
	ms, err := strconv.ParseFloat(recovered[recMSCol], 64)
	if err != nil || ms < 0 {
		t.Fatalf("recovery-ms = %q", recovered[recMSCol])
	}
	objs, err := strconv.Atoi(recovered[objsCol])
	if err != nil || objs == 0 {
		t.Fatalf("dc-objs-recovered = %q, want > 0", recovered[objsCol])
	}
	if cold[objsCol] != "-" {
		t.Fatalf("cold arm recovered objects = %q, want -", cold[objsCol])
	}

	// The recovered arm starts with a full DC; the cold arm re-earns it. The
	// first post-crash window must show the gap.
	rf, err := strconv.ParseFloat(recovered[firstCol], 64)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := strconv.ParseFloat(cold[firstCol], 64)
	if err != nil {
		t.Fatal(err)
	}
	if rf <= cf {
		t.Errorf("first-window total OHR: recovered %.4f <= cold %.4f", rf, cf)
	}
	// The crash loses the tail since the last checkpoint; the journal makes
	// it good, so the recovered arm is back at the pre-crash level at once.
	if got := recovered[4]; got != strconv.Itoa(cc.Window) {
		t.Errorf("recovered arm regained 95%% of the pre-crash total OHR after %s requests, want %d (one window)", got, cc.Window)
	}
}

// TestCrashRecoveryReportDeterministic: everything but the wall-clock
// recovery-ms cell is byte-identical across runs of the deployed node.
func TestCrashRecoveryReportDeterministic(t *testing.T) {
	cc := DefaultCrashConfig()
	cc.Scale = tiny()
	cc.Scale.OnlineTraceLen, cc.Window, cc.CkptEvery = 4_000, 500, 1_500
	sameTwice(t, func() (*Report, error) {
		rep, err := CrashRecoveryReport(cc)
		if err == nil {
			rep.Rows[0][1] = "-"
		}
		return rep, err
	})
}

func TestCrashRecoveryReportRejectsBadConfig(t *testing.T) {
	for _, mod := range []func(*CrashConfig){
		func(c *CrashConfig) { c.Window = 0 },
		func(c *CrashConfig) { c.CrashFrac = 0 },
		func(c *CrashConfig) { c.CrashFrac = 1.5 },
	} {
		cc := DefaultCrashConfig()
		mod(&cc)
		if _, err := CrashRecoveryReport(cc); err == nil {
			t.Errorf("config %+v accepted, want error", cc)
		}
	}
}
