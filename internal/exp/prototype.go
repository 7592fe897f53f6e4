package exp

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/node"
	"darwin/internal/server"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// PrototypeConfig sizes the wall-clock HTTP testbed measurements (fig7,
// chaos, overload). The injected latencies preserve the paper's ordering
// (disk ≪ proxy↔origin) at a scale that keeps benchmark runs short.
type PrototypeConfig struct {
	// OriginLatency is the injected proxy→origin delay (paper: 100 ms).
	OriginLatency time.Duration
	// DCLatency is the injected disk-read delay.
	DCLatency time.Duration
	// Concurrency is the client worker count for latency runs.
	Concurrency int
	// ConcurrencySweep lists the worker counts for the throughput experiment.
	ConcurrencySweep []int
	// TraceLen is the request count per prototype run.
	TraceLen int
}

// DefaultPrototypeConfig returns benchmark-friendly latencies (2 ms origin,
// 500 µs disk).
func DefaultPrototypeConfig() PrototypeConfig {
	return PrototypeConfig{
		OriginLatency:    2 * time.Millisecond,
		DCLatency:        500 * time.Microsecond,
		Concurrency:      8,
		ConcurrencySweep: []int{1, 4, 16, 64},
		TraceLen:         8000,
	}
}

// PrototypeScale shrinks a scale's online knobs so Darwin's full
// warm-up → identify → exploit cycle fits the short traces HTTP prototype
// runs can afford: one epoch per 2000 requests with a 600-request warm-up.
// The returned scale trains its own corpus whose FeatureWindow matches the
// shrunken warm-up.
func PrototypeScale(sc Scale) Scale {
	sc.Online.Epoch = 2000
	sc.Online.Warmup = 600
	sc.Online.Round = 300
	sc.Online.StabilityRounds = 3
	return sc
}

// protoArm is one contender of the prototype figures: Darwin's controller
// over the corpus model, or a static expert (model nil).
type protoArm struct {
	name   string
	model  *core.Model
	expert cache.Expert
}

// protoArms returns Darwin followed by the static experts of c's grid at the
// given indices.
func protoArms(c *Corpus, experts ...int) []protoArm {
	arms := []protoArm{{name: "darwin", model: c.Model}}
	for _, i := range experts {
		e := c.Scale.Experts[i]
		arms = append(arms, protoArm{name: e.String(), expert: e})
	}
	return arms
}

// on sets cfg's decider to a's.
func (a protoArm) on(cfg node.Config, c *Corpus) node.Config {
	cfg.Expert, cfg.Model, cfg.Online = a.expert, a.model, c.Scale.Online
	return cfg
}

// Fig4cPrototypeOHR reproduces Figure 4c: Darwin vs a spread of static
// experts, each deployed as a node on its own rig (no injected latency) and
// replayed serially with every request at its trace time on the rig clock.
// The replay is then a pure function of the trace, so each row is the
// simulator's: the darwin row is what Controller.Serve gives on tr.
func Fig4cPrototypeOHR(c *Corpus, tr *trace.Trace) (*Report, error) {
	rep := &Report{
		Title:  "Figure 4c: prototype OHR (deployed nodes, serial replay at trace time)",
		Header: []string{"scheme", "OHR", "requests", "errors"},
	}
	n := len(c.Scale.Experts)
	for _, a := range protoArms(c, 0, n/2, n-1) {
		hoc, errs, err := replayAtTraceTime(c, a, tr)
		if err != nil {
			return nil, err
		}
		rep.AddRow(a.name, f4(float64(hoc)/float64(tr.Len())), fmt.Sprint(tr.Len()-errs), fmt.Sprint(errs))
	}
	return rep, nil
}

// replayAtTraceTime deploys a on a fresh rig and replays tr through it with
// getAt, returning the HOC hits and the non-200 answers the client saw.
func replayAtTraceTime(c *Corpus, a protoArm, tr *trace.Trace) (hoc, errs int, err error) {
	r := newRig(&server.Origin{})
	defer r.close()
	n, err := r.startNode(a.on(r.nodeConfig(a.expert, c.Scale.Eval), c))
	if err != nil {
		return 0, 0, err
	}
	for _, req := range tr.Requests {
		s, err := r.getAt(n.url, req)
		if err != nil {
			return 0, 0, err
		}
		if s.hoc {
			hoc++
		}
		if s.status != http.StatusOK {
			errs++
		}
	}
	return hoc, errs, nil
}

// loadArm deploys a on a fresh rig over an origin of pc's latency and drives
// it with server.RunLoad at the given concurrency, on the wall clock. The
// node is the bare pipeline: the paper's testbed never faults its origin.
func loadArm(c *Corpus, pc PrototypeConfig, a protoArm, tr *trace.Trace, conc int) (server.LoadResult, error) {
	r := newRig(&server.Origin{Latency: pc.OriginLatency})
	defer r.close()
	cfg := a.on(r.config(c.Scale.Eval, server.Resilience{}, server.Overload{}), c)
	cfg.DCLatency = pc.DCLatency
	n, err := r.startNode(cfg)
	if err != nil {
		return server.LoadResult{}, err
	}
	return server.RunLoad(context.Background(), tr, server.LoadConfig{ProxyURL: n.url, Concurrency: conc})
}

// Fig7aLatency reproduces Figure 7a: the first-byte latency distribution for
// Darwin vs a static expert over a concatenated trace whose segments have
// different best experts.
func Fig7aLatency(c *Corpus, pc PrototypeConfig, tr *trace.Trace) (*Report, error) {
	rep := &Report{
		Title:  "Figure 7a: first-byte latency (percentiles, ms)",
		Header: []string{"scheme", "p10", "p50", "p90", "p99"},
	}
	for _, a := range protoArms(c, len(c.Scale.Experts)/2) {
		res, err := loadArm(c, pc, a, tr, pc.Concurrency)
		if err != nil {
			return nil, err
		}
		ms := func(p float64) string {
			return fmt.Sprintf("%.2f", float64(res.LatencyPercentile(p).Microseconds())/1000)
		}
		rep.AddRow(a.name, ms(10), ms(50), ms(90), ms(99))
	}
	rep.AddNote("paper: Darwin lowers first-byte latency by avoiding origin round trips (higher OHR)")
	return rep, nil
}

// Fig7bThroughput reproduces Figure 7b: application throughput vs
// concurrency for Darwin and a static expert.
func Fig7bThroughput(c *Corpus, pc PrototypeConfig, tr *trace.Trace) (*Report, error) {
	rep := &Report{
		Title:  "Figure 7b: throughput vs concurrency (Mbps)",
		Header: []string{"concurrency", "darwin", "static"},
	}
	arms := protoArms(c, len(c.Scale.Experts)/2)
	for _, conc := range pc.ConcurrencySweep {
		row := []string{intStr(conc)}
		for _, a := range arms {
			res, err := loadArm(c, pc, a, tr, conc)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(res.ThroughputBps()/1e6))
		}
		rep.AddRow(row...)
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
		tr, err := tracegen.ImageDownloadMix(pct, segLen, c.Scale.Seed+int64(900+i))
		if err != nil {
			return nil, err
		}
		segs = append(segs, tr)
	}
	return trace.Concat("prototype-concat", segs...), nil
}
