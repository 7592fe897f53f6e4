package exp

import (
	"context"
	"fmt"
	"time"

	"darwin/internal/breaker"
	"darwin/internal/cache"
	"darwin/internal/faults"
	"darwin/internal/server"
	"darwin/internal/trace"
)

// OverloadConfig sizes the overload chaos experiment: a flash-crowd arrival
// schedule replayed against a browned-out origin (stalls + errors + one hard
// outage), comparing the retry-only pipeline (server.Overload{}: the overload
// stages absent) with the full overload-protection stack (circuit breaker,
// admission control, deadline propagation, hedging, retry budget). The regime the paper's §6.4 testbed never enters —
// and the one where retries alone make things worse, not better.
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
	// Expert and Eval fix the static decider driving both arms.
	Expert cache.Expert
	Eval   cache.EvalConfig
	// Mix and Seed generate the replayed trace.
	Mix  int
	Seed int64
}

// DefaultOverloadConfig returns the benchmark-scale overload schedule: a
// 300 ms client deadline against an origin that stalls 12% of responses for
// 900 ms (slow enough to blow the deadline, fast enough that the retry-only
// proxy happily waits it out), errors 10%, and goes hard-down for one 400 ms
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
		Expert: cache.Expert{Freq: 1, MaxSize: 1 << 20},
		Eval:   cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20},
		Mix:    50,
		Seed:   7,
	}
}

// overloadRun deploys a node with the static expert, the shared resilience
// stages and the overload stages ov over the browned-out origin, replays the
// flash-crowd trace through it, and returns the client-side result plus the
// proxy counters and the breaker snapshot (zero for the retry-only arm).
func overloadRun(oc OverloadConfig, ov server.Overload, tr *trace.Trace) (server.LoadResult, server.ProxyStats, breaker.Snapshot, error) {
	injector := faults.New(oc.Faults)
	r := newRig(injector.Wrap(&server.Origin{Latency: oc.Prototype.OriginLatency}))
	defer r.close()
	cfg := r.config(oc.Eval, oc.Resilience, ov)
	cfg.Expert, cfg.DCLatency = oc.Expert, oc.Prototype.DCLatency
	n, err := r.startNode(cfg)
	if err != nil {
		return server.LoadResult{}, server.ProxyStats{}, breaker.Snapshot{}, err
	}

	// Like the chaos experiment, a wall-clock measurement: the brownout
	// windows anchor to the physical clock of the live origin server.
	//lint:ignore determinism prototype testbed runs on the physical clock; simulator replays never reach this path
	injector.Restart(time.Now()) // align the brownout windows with the replay
	lr, err := server.RunLoad(context.Background(), tr, server.LoadConfig{
		ProxyURL:       n.url,
		Concurrency:    oc.Prototype.Concurrency,
		RequestTimeout: 30 * time.Second,
		Deadline:       oc.Deadline,
		Burst:          &oc.Burst,
	})
	snap, _ := n.Proxy.BreakerSnapshot()
	return lr, n.Proxy.Stats(), snap, err
}

// OverloadReport runs the flash-crowd brownout twice under an identical
// fault and arrival schedule — once through the retry-only pipeline and once
// with the overload-protection stages — and tabulates goodput, tail latency,
// and the error budget. The protected arm should win on both headline
// numbers: deadline-bounded attempts and hedging turn origin stalls into
// fast answers instead of slow ones, and the breaker converts the outage
// window into cheap stale serves instead of doomed fetches.
func OverloadReport(oc OverloadConfig) (*Report, error) {
	tr, err := SyntheticMix(oc.Mix, oc.Prototype.TraceLen, oc.Seed)
	if err != nil {
		return nil, err
	}
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
		lr, ps, bs, err := overloadRun(oc, arm.ov, tr)
		if err != nil {
			return nil, err
		}
		rep.AddRow(arm.name,
			fmt.Sprint(lr.Requests), fmt.Sprint(lr.OnTime), f4(lr.GoodputRate()),
			fmt.Sprint(lr.Errors), fmt.Sprint(lr.Shed), fmt.Sprint(lr.StaleServes),
			fmt.Sprintf("%.2f", float64(lr.LatencyPercentile(99).Microseconds())/1000),
			fmt.Sprint(ps.OriginFetches), fmt.Sprint(ps.Retries),
			fmt.Sprint(ps.Hedges), fmt.Sprint(ps.HedgeWins),
			fmt.Sprint(bs.Opens), fmt.Sprint(bs.Denied))
	}
	rep.AddNote("client deadline %v; goodput = on-time completions / issued requests", oc.Deadline)
	if len(oc.Faults.Outages) > 0 {
		rep.AddNote("brownout: %.0f%% stalls of %v, %.0f%% errors, outage %v-%v",
			oc.Faults.StallRate*100, oc.Faults.Stall, oc.Faults.ErrorRate*100,
			oc.Faults.Outages[0].Start, oc.Faults.Outages[0].End)
	} else {
		rep.AddNote("brownout: %.0f%% stalls of %v, %.0f%% errors",
			oc.Faults.StallRate*100, oc.Faults.Stall, oc.Faults.ErrorRate*100)
	}
	rep.AddNote("protected arm: deadline-bounded hedged fetches + breaker (opens=bropen) shed doomed work; retry-only waits out every stall")
	return rep, nil
}
