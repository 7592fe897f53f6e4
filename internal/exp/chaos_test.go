package exp

import (
	"strconv"
	"testing"
	"time"

	"darwin/internal/faults"
	"darwin/internal/server"
)

// fastChaos returns a timing-robust chaos config for CI: rate-based faults
// only (no wall-clock outage window), small trace, tiny latencies.
func fastChaos() ChaosConfig {
	cc := DefaultChaosConfig()
	cc.Prototype.OriginLatency = 200 * time.Microsecond
	cc.Prototype.DCLatency = 50 * time.Microsecond
	cc.Prototype.Concurrency = 8
	cc.Prototype.TraceLen = 800
	cc.Faults = faults.Config{
		Seed:         42,
		ErrorRate:    0.2,
		TruncateRate: 0.05,
	}
	cc.Resilience = server.DefaultResilience()
	cc.Resilience.BackoffBase = 1 * time.Millisecond
	return cc
}

func TestChaosResilientBeatsControl(t *testing.T) {
	rep, err := ChaosReport(fastChaos())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	parse := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("row %v col %d: %v", row, col, err)
		}
		return v
	}
	const errRateCol = 3
	control, resilient := rep.Rows[0], rep.Rows[1]
	if control[0] != "no-resilience" || resilient[0] != "resilient" {
		t.Fatalf("arm order: %v / %v", control[0], resilient[0])
	}
	cr, rr := parse(control, errRateCol), parse(resilient, errRateCol)
	// 20% hard errors + 5% truncations: the control proxy forwards faults to
	// clients (error rate near the injected rate), the hardened proxy retries
	// them away (well under it).
	if cr < 0.10 {
		t.Errorf("control error rate %.4f implausibly low for a 25%% fault schedule", cr)
	}
	if rr > 0.05 {
		t.Errorf("resilient error rate %.4f, want < 0.05", rr)
	}
	if rr >= cr {
		t.Errorf("resilience did not help: resilient %.4f >= control %.4f", rr, cr)
	}
}

func TestChaosCoalescingVisible(t *testing.T) {
	cc := fastChaos()
	cc.Faults = faults.Config{Seed: 1} // healthy origin; isolate coalescing
	cc.Prototype.OriginLatency = 2 * time.Millisecond
	rep, err := ChaosReport(cc)
	if err != nil {
		t.Fatal(err)
	}
	const coalescedCol = 12
	resilient := rep.Rows[1]
	n, err := strconv.Atoi(resilient[coalescedCol])
	if err != nil {
		t.Fatal(err)
	}
	// A zipf-ish mix at concurrency 8 with a slow origin must coalesce some
	// concurrent misses; zero means single-flight never engaged.
	if n == 0 {
		t.Error("no coalesced fetches recorded in the resilient arm")
	}
}
