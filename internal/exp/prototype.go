package exp

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"darwin/internal/baselines"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/server"
	"darwin/internal/trace"
)

// PrototypeConfig sizes the HTTP testbed experiments. The injected latencies
// preserve the paper's ordering (client↔proxy ≪ disk ≪ proxy↔origin) at a
// scale that keeps benchmark runs short.
type PrototypeConfig struct {
	// OriginLatency is the injected proxy→origin delay (paper: 100 ms).
	OriginLatency time.Duration
	// DCLatency is the injected disk-read delay.
	DCLatency time.Duration
	// ClientLatency is the injected client→proxy delay (paper: 10 ms).
	ClientLatency time.Duration
	// Concurrency is the client worker count for latency runs.
	Concurrency int
	// ConcurrencySweep lists the worker counts for the throughput experiment.
	ConcurrencySweep []int
	// TraceLen is the request count per prototype run.
	TraceLen int
	// Shards is the cache-engine shard count for every proxy decider in the
	// run (<= 0 selects 1, the serial/global-lock arrangement).
	Shards int
}

// shards returns the effective shard count.
func (pc PrototypeConfig) shards() int {
	if pc.Shards <= 0 {
		return 1
	}
	return pc.Shards
}

// DefaultPrototypeConfig returns benchmark-friendly latencies (2 ms origin,
// 500 µs disk, no client delay).
func DefaultPrototypeConfig() PrototypeConfig {
	return PrototypeConfig{
		OriginLatency:    2 * time.Millisecond,
		DCLatency:        500 * time.Microsecond,
		ClientLatency:    0,
		Concurrency:      8,
		ConcurrencySweep: []int{1, 4, 16, 64},
		TraceLen:         8000,
	}
}

// PrototypeScale shrinks a scale's online knobs so Darwin's full
// warm-up → identify → exploit cycle fits the short traces HTTP prototype
// runs can afford: one epoch per 2000 requests with a 600-request warm-up.
// The returned scale trains its own (cached) corpus whose FeatureWindow
// matches the shrunken warm-up.
func PrototypeScale(sc Scale) Scale {
	sc.Online.Epoch = 2000
	sc.Online.Warmup = 600
	sc.Online.Round = 300
	sc.Online.StabilityRounds = 3
	return sc
}

// startProxy spins up an origin+proxy pair around the given decider and
// returns the proxy URL and a shutdown func. The paper's testbed never faults
// its origin, so the proxy is the bare pipeline: every resilience and
// overload stage absent.
func startProxy(dec server.Decider, pc PrototypeConfig) (string, func()) {
	origin := &server.Origin{Latency: pc.OriginLatency}
	originSrv := httptest.NewServer(origin)
	proxy := server.NewOverloadProxy(dec, originSrv.URL, pc.DCLatency, server.Resilience{}, server.Overload{})
	proxySrv := httptest.NewServer(proxy)
	return proxySrv.URL, func() {
		proxySrv.Close()
		originSrv.Close()
	}
}

// darwinDecider builds a Darwin controller decider for the prototype over a
// sharded cache engine (shards=1 reproduces the serial hierarchy exactly).
func darwinDecider(c *Corpus, shards int) (server.Decider, error) {
	eng, err := cache.NewSharded(cache.Config{
		HOCBytes: c.Scale.Eval.HOCBytes,
		DCBytes:  c.Scale.Eval.DCBytes,
	}, shards)
	if err != nil {
		return nil, err
	}
	// The prototype trace is short; shrink the online knobs to fit.
	oc := c.Scale.Online
	return core.NewController(c.Model, eng, oc)
}

// Fig4cPrototypeOHR reproduces Figure 4c: Darwin vs a subset of static
// experts on the HTTP prototype at low concurrency.
func Fig4cPrototypeOHR(c *Corpus, pc PrototypeConfig, tr *trace.Trace) (*Report, error) {
	rep := &Report{
		Title:  fmt.Sprintf("Figure 4c: prototype OHR (low concurrency, shards=%d)", pc.shards()),
		Header: []string{"scheme", "OHR", "requests", "errors"},
	}
	runOne := func(name string, dec server.Decider) error {
		url, stop := startProxy(dec, pc)
		defer stop()
		res, err := server.RunLoad(context.Background(), tr, server.LoadConfig{
			ProxyURL:    url,
			Concurrency: pc.Concurrency,
		})
		if err != nil {
			return err
		}
		ohr := 0.0
		if res.Requests > 0 {
			ohr = float64(res.HOCHits) / float64(res.Requests)
		}
		rep.AddRow(name, f4(ohr), fmt.Sprint(res.Requests), fmt.Sprint(res.Errors))
		return nil
	}

	dd, err := darwinDecider(c, pc.shards())
	if err != nil {
		return nil, err
	}
	if err := runOne("darwin", dd); err != nil {
		return nil, err
	}
	// A spread of static experts, as in the paper's prototype comparison.
	picks := []int{0, len(c.Scale.Experts) / 2, len(c.Scale.Experts) - 1}
	for _, ei := range picks {
		e := c.Scale.Experts[ei]
		st, err := baselines.NewStaticSharded(e, c.Scale.Eval, pc.shards())
		if err != nil {
			return nil, err
		}
		if err := runOne(e.String(), st); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Fig7aLatency reproduces Figure 7a: the first-byte latency distribution for
// Darwin vs a static expert over a concatenated trace whose segments have
// different best experts.
func Fig7aLatency(c *Corpus, pc PrototypeConfig, tr *trace.Trace) (*Report, error) {
	rep := &Report{
		Title:  fmt.Sprintf("Figure 7a: first-byte latency (percentiles, ms, shards=%d)", pc.shards()),
		Header: []string{"scheme", "p10", "p50", "p90", "p99"},
	}
	runOne := func(name string, dec server.Decider) error {
		url, stop := startProxy(dec, pc)
		defer stop()
		res, err := server.RunLoad(context.Background(), tr, server.LoadConfig{
			ProxyURL:      url,
			Concurrency:   pc.Concurrency,
			ClientLatency: pc.ClientLatency,
		})
		if err != nil {
			return err
		}
		ms := func(p float64) string {
			return fmt.Sprintf("%.2f", float64(res.LatencyPercentile(p).Microseconds())/1000)
		}
		rep.AddRow(name, ms(10), ms(50), ms(90), ms(99))
		return nil
	}
	dd, err := darwinDecider(c, pc.shards())
	if err != nil {
		return nil, err
	}
	if err := runOne("darwin", dd); err != nil {
		return nil, err
	}
	mid := c.Scale.Experts[len(c.Scale.Experts)/2]
	st, err := baselines.NewStaticSharded(mid, c.Scale.Eval, pc.shards())
	if err != nil {
		return nil, err
	}
	if err := runOne(mid.String(), st); err != nil {
		return nil, err
	}
	rep.AddNote("paper: Darwin lowers first-byte latency by avoiding origin round trips (higher OHR)")
	return rep, nil
}

// Fig7bThroughput reproduces Figure 7b: application throughput vs
// concurrency for Darwin and a static expert.
func Fig7bThroughput(c *Corpus, pc PrototypeConfig, tr *trace.Trace) (*Report, error) {
	rep := &Report{
		Title:  fmt.Sprintf("Figure 7b: throughput vs concurrency (Mbps, shards=%d)", pc.shards()),
		Header: []string{"concurrency", "darwin", "static"},
	}
	static := c.Scale.Experts[len(c.Scale.Experts)/2]
	for _, conc := range pc.ConcurrencySweep {
		run := func(dec server.Decider) (float64, error) {
			url, stop := startProxy(dec, pc)
			defer stop()
			res, err := server.RunLoad(context.Background(), tr, server.LoadConfig{ProxyURL: url, Concurrency: conc})
			if err != nil {
				return 0, err
			}
			return res.ThroughputBps() / 1e6, nil
		}
		dd, err := darwinDecider(c, pc.shards())
		if err != nil {
			return nil, err
		}
		dv, err := run(dd)
		if err != nil {
			return nil, err
		}
		st, err := baselines.NewStaticSharded(static, c.Scale.Eval, pc.shards())
		if err != nil {
			return nil, err
		}
		sv, err := run(st)
		if err != nil {
			return nil, err
		}
		rep.AddRow(intStr(conc), f2(dv), f2(sv))
	}
	rep.AddNote("paper: Darwin reaches 10.4 Gbps at 200 threads vs 9.3 Gbps static; shapes, not absolutes, carry over")
	return rep, nil
}

// PrototypeTrace builds the concatenated multi-segment trace of §6.4 (four
// segments with different best experts) at the prototype's length.
func PrototypeTrace(c *Corpus, totalLen int) (*trace.Trace, error) {
	segLen := totalLen / 4
	var segs []*trace.Trace
	for i, pct := range []int{100, 0, 75, 25} {
		tr, err := SyntheticMix(pct, segLen, c.Scale.Seed+int64(900+i))
		if err != nil {
			return nil, err
		}
		segs = append(segs, tr)
	}
	return trace.Concat("prototype-concat", segs...), nil
}
