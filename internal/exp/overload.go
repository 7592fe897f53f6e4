package exp

import (
	"fmt"
	"time"

	"darwin/internal/faults"
	"darwin/internal/server"
)

// OverloadConfig sizes the overload chaos experiment: a flash-crowd arrival
// schedule replayed against a browned-out origin (stalls + errors + one hard
// outage), comparing the retry-only pipeline (server.Overload{}: the overload
// stages absent) with the overload-protection stack (circuit breaker,
// deadline propagation, hedging, retry budget), both serving the rig
// workload (rig.go). The regime the paper's §6.4 testbed never enters — and
// the one where retries alone make things worse, not better. The protected
// arm is configured with admission control too, but the stage never sheds
// here: server.RunLoad is closed-loop, so at most Prototype.Concurrency (24)
// requests are in flight, far under DefaultOverload's MaxInFlight of 512.
// Only server's TestAdmissionShedsOverBudget and TestOverloadSheddingStress
// engage it.
type OverloadConfig struct {
	// Prototype carries the testbed latencies and client concurrency.
	Prototype PrototypeConfig
	// Faults is the origin brownout schedule: stalls model a saturated
	// origin answering slowly, errors and the outage window model the part
	// of the fleet that has tipped over.
	Faults faults.Config
	// Resilience is the retry layer shared by both arms, so the comparison
	// isolates the overload controls.
	Resilience server.Resilience
	// Overload is the protected arm's configuration; the retry-only control
	// always runs with the zero (disabled) Overload.
	Overload server.Overload
	// Deadline is the client's per-request freshness deadline: propagated to
	// the proxy and used to classify on-time (goodput) completions.
	Deadline time.Duration
	// Burst is the seeded flash-crowd arrival schedule driving dispatch.
	Burst server.Burst
}

// DefaultOverloadConfig returns the reported overload schedule: a
// 300 ms client deadline against an origin that stalls 12% of responses for
// 900 ms (slow enough to blow the deadline, fast enough that the retry-only
// proxy happily waits it out), errors 10%, and goes hard-down for one 1 s
// window — while the client dispatches in seeded flash crowds.
func DefaultOverloadConfig() OverloadConfig {
	pc := DefaultPrototypeConfig()
	pc.OriginLatency = 1 * time.Millisecond
	pc.Concurrency = 24
	pc.TraceLen = 4000
	return OverloadConfig{
		Prototype: pc,
		Faults: faults.Config{
			Seed:      42,
			ErrorRate: 0.10,
			StallRate: 0.12,
			Stall:     900 * time.Millisecond,
			Outages:   []faults.Window{{Start: 2500 * time.Millisecond, End: 3500 * time.Millisecond}},
		},
		Resilience: server.DefaultResilience(),
		Overload:   server.DefaultOverload(),
		Deadline:   300 * time.Millisecond,
		Burst: server.Burst{
			Seed:  11,
			Gap:   1 * time.Millisecond,
			Every: 500,
			Len:   125,
		},
	}
}

// OverloadReport runs the flash-crowd brownout twice under an identical
// fault and arrival schedule — once through the retry-only pipeline and once
// with the overload-protection stages — and tabulates goodput, tail latency,
// and the error budget. The protected arm should win on both headline
// numbers: deadline-bounded attempts and hedging turn origin stalls into
// fast answers instead of slow ones, and the breaker converts the outage
// window into cheap stale serves instead of doomed fetches. Its sheds are
// deadline and breaker sheds; admission sheds none (see OverloadConfig).
func OverloadReport(oc OverloadConfig) (*Report, error) {
	rep := &Report{
		Title: "Overload: flash crowd vs origin brownout (protected vs retry-only)",
		Header: []string{"scheme", "ok", "ontime", "goodput", "errors", "shed", "stale",
			"p99ms", "fetches", "retries", "hedges", "hwins", "bropen", "brdeny"},
	}
	arms := []struct {
		name string
		ov   server.Overload
	}{
		{"retry-only", server.Overload{}},
		{"protected", oc.Overload},
	}
	for _, arm := range arms {
		lr, p, err := faultedRun(oc.Prototype, faults.New(oc.Faults), oc.Resilience, arm.ov,
			server.LoadConfig{Deadline: oc.Deadline, Burst: &oc.Burst})
		if err != nil {
			return nil, err
		}
		ps := p.Stats()
		bs, _ := p.BreakerSnapshot() // zero for the retry-only arm
		rep.AddRow(arm.name,
			fmt.Sprint(lr.Requests), fmt.Sprint(lr.OnTime), f4(lr.GoodputRate()),
			fmt.Sprint(lr.Errors), fmt.Sprint(lr.Shed), fmt.Sprint(lr.StaleServes),
			fmt.Sprintf("%.2f", float64(lr.LatencyPercentile(99).Microseconds())/1000),
			fmt.Sprint(ps.OriginFetches), fmt.Sprint(ps.Retries),
			fmt.Sprint(ps.Hedges), fmt.Sprint(ps.HedgeWins),
			fmt.Sprint(bs.Opens), fmt.Sprint(bs.Denied))
	}
	rep.AddNote("client deadline %v; goodput = on-time completions / issued requests", oc.Deadline)
	brownout := fmt.Sprintf("brownout: %.0f%% stalls of %v, %.0f%% errors", oc.Faults.StallRate*100, oc.Faults.Stall, oc.Faults.ErrorRate*100)
	if o := oc.Faults.Outages; len(o) > 0 {
		brownout += fmt.Sprintf(", outage %v-%v", o[0].Start, o[0].End)
	}
	rep.AddNote("%s", brownout)
	rep.AddNote("protected arm: deadline-bounded hedged fetches + breaker (opens=bropen) shed doomed work; retry-only waits out every stall")
	return rep, nil
}
