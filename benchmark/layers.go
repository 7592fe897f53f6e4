package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"darwin/internal/exp"
	"darwin/internal/features"
	"darwin/internal/gossip"
	"darwin/internal/lb"
	"darwin/internal/persist"
	"darwin/internal/trace"
)

// perLayer declares the per-layer metrics, in print order. Every workload
// reports every one; a layer a workload does not run reports 0. BENCHMARK.json
// repeats this list and the smoke test holds the two together.
var perLayer = []struct{ name, unit, better string }{
	{"loadgen.self_us", "us", "lower"},
	{"loadgen.p99_us", "us", "lower"},
	{"front.self_us", "us", "lower"},
	{"proxy.self_us", "us", "lower"},
	{"peer.self_us", "us", "lower"},
	{"decider.self_us", "us", "lower"},
	{"engine.self_us", "us", "lower"},
	{"journal.self_us", "us", "lower"},
	{"origin.self_us", "us", "lower"},
	{"front.failovers", "count", "lower"},
	{"ring.route_ns", "ns", "lower"},
	{"peer.probes_per_req", "1/req", "lower"},
	{"peer.fill_ratio", "ratio", "higher"},
	{"gossip.merge_ns", "ns", "lower"},
	{"proxy.coalesced", "count", "lower"},
	{"proxy.retries", "count", "lower"},
	{"proxy.shed", "count", "lower"},
	{"decider.learn_ms", "ms", "lower"},
	{"decider.expert_switches", "count", "lower"},
	{"features.observe_ns", "ns", "lower"},
	{"engine.dc_hit_ratio", "ratio", "higher"},
	{"journal.appends_per_req", "1/req", "lower"},
	{"journal.bytes_per_req", "B/req", "lower"},
	{"journal.syncs", "count", "lower"},
	{"origin.fetch_per_req", "1/req", "lower"},
	{"origin.byte_ratio", "ratio", "lower"},
	{"proc.allocs_per_req", "1/req", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.cpu_us_per_req", "us", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.clock_ns", "ns", "lower"},
}

// layerRow is one per-layer metric as printed and stored.
type layerRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerTable is the traced pass's output for one workload.
type layerTable struct {
	values map[string]float64
	// The reconciliation the table ends with, all per request.
	sumSelfUS    float64 // Σ self over layers, traced run
	tracedMeanUS float64 // mean send → completion, traced run: what Σ self must equal
	residualUS   float64 // tracedMeanUS − sumSelfUS: time recorded outside every request
	clippedUS    float64 // time cut from spans that outlived their parent
	bareMeanUS   float64 // the same latency without wrappers
	droppedSpans int64
	attempted    int
	failed       int
	violations   []string
	wallS        float64
}

func (lt *layerTable) set(name string, v float64) { lt.values[name] = v }

// rows lists the table in declared order.
func (lt *layerTable) rows() []layerRow {
	rows := make([]layerRow, len(perLayer))
	for i, m := range perLayer {
		rows[i] = layerRow{Name: m.name, Value: lt.values[m.name], Unit: m.unit}
	}
	return rows
}

func (lt *layerTable) absorb(r *rep) {
	lt.attempted += r.attempted
	lt.failed += r.failed
	lt.violations = append(lt.violations, r.violations...)
	lt.wallS += r.wallS
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPass produces the per-layer table of one workload, on one trained
// model and one trace.
func (b *bench) tracedPass(w workload) (*layerTable, error) {
	c, tr, err := b.setUp(w)
	if err != nil {
		return nil, err
	}
	lt := &layerTable{values: map[string]float64{}}
	var bd *breakdown
	if w.nodes == 0 {
		bd, err = b.simTraced(c, tr, lt)
	} else {
		bd, err = b.httpTraced(w, c, tr, lt)
	}
	if err != nil {
		return nil, err
	}
	for l := lyLoadgen; l < numLayers; l++ {
		lt.set(layerNames[l]+".self_us", bd.selfUS(l))
	}
	micro(lt, tr)

	lt.sumSelfUS = bd.sumSelfUS()
	lt.tracedMeanUS = bd.perRequestUS(bd.latencyNS)
	lt.clippedUS = bd.perRequestUS(bd.clippedNS)
	lt.residualUS = lt.tracedMeanUS - lt.sumSelfUS
	lt.droppedSpans = bd.dropped
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, err
	}
	data, err := bd.encode(w.name)
	if err != nil {
		return nil, err
	}
	if err := persist.WriteFileAtomic(filepath.Join(b.outDir, "trace-"+w.name+".json"), data, 0o644); err != nil {
		return nil, err
	}
	return lt, nil
}

// httpTraced runs an HTTP workload three times: with both clients for the
// counts, then with one client bare and with one client through the
// wrappers. One request in flight is what lets spans nest without an
// identifier; the bare run prices the wrappers (trace.overhead_ratio). The
// runs are half length: there are three of them, and a mean needs fewer
// samples than a p99.
func (b *bench) httpTraced(w workload, c *exp.Corpus, tr *trace.Trace, lt *layerTable) (*breakdown, error) {
	warm, timed := b.sc.sizes(w)
	tr = tr.Window(0, warm+timed/2)
	counts, err := b.httpPass(w, c, tr, clients, nil, time.Now())
	if err != nil {
		return nil, err
	}
	bare, err := b.httpPass(w, c, tr, 1, nil, time.Now())
	if err != nil {
		return nil, err
	}
	t := newTracer(timed / 2 * 12) // a request leaves 6–9 spans
	wrapped, err := b.httpPass(w, c, tr, 1, t, time.Now())
	if err != nil {
		return nil, err
	}
	for _, p := range []*pass{counts, bare, wrapped} {
		lt.absorb(p.rep)
	}
	lt.bareMeanUS = bare.meanFullUS

	n := float64(counts.timed.ok())
	d := func(i int) float64 { return float64(counts.delta[i]) }
	lt.set("front.failovers", d(ctFailovers))
	lt.set("peer.probes_per_req", ratio(d(ctPeerProbes), n))
	lt.set("peer.fill_ratio", ratio(d(ctPeerFills), d(ctPeerProbes)))
	lt.set("proxy.coalesced", d(ctCoalesced))
	lt.set("proxy.retries", d(ctRetries))
	lt.set("proxy.shed", d(ctShed))
	lt.set("decider.learn_ms", d(ctLearnNS)/1e6)
	lt.set("decider.expert_switches", d(ctExpertSwitches))
	lt.set("engine.dc_hit_ratio", ratio(d(ctDCHits), d(ctRequests)-d(ctHOCHits)))
	lt.set("journal.appends_per_req", ratio(d(ctAppends), n))
	lt.set("journal.bytes_per_req", ratio(d(ctLogBytes), n))
	lt.set("journal.syncs", d(ctSyncs))
	lt.set("origin.fetch_per_req", ratio(d(ctOriginRequests), n))
	lt.set("origin.byte_ratio", ratio(d(ctOriginBytes), d(ctBytes)))
	counts.proc.record(lt, n)
	lt.set("loadgen.p99_us", counts.rep.p99us)
	lt.set("trace.overhead_ratio", ratio(bare.rep.reqPerS, wrapped.rep.reqPerS))
	return t.analyze(lyLoadgen), nil
}

// simTraced is the traced pass of sim-shift: bare plays for the counts and
// the reference ohr, and plays with the engine wrapper in the path of every
// request and one request in simSample recorded at both seams. Bare and traced
// plays alternate, and trace.overhead_ratio compares their median walls, so
// that a slow second on this host lands on neither side alone.
func (b *bench) simTraced(c *exp.Corpus, tr *trace.Trace, lt *layerTable) (*breakdown, error) {
	const rounds = 3
	var bareWalls, tracedWalls []float64
	var t *tracer
	for round := 0; round < rounds; round++ {
		eng, ctl, err := newEngine(c, nil, nil)
		if err != nil {
			return nil, err
		}
		procBefore := readProc()
		begin := time.Now()
		ctl.Play(tr)
		bareWalls = append(bareWalls, time.Since(begin).Seconds())
		proc := readProc().sub(procBefore)
		bare := ctl.Metrics()

		t = newTracer(tr.Len()/simSample*2 + 16)
		t.on.Store(false)
		_, tctl, err := newEngine(c, nil, t)
		if err != nil {
			return nil, err
		}
		dec := tracedDecider{inner: tctl, t: t}
		begin = time.Now()
		for i, r := range tr.Requests {
			if i%simSample == 0 {
				t.on.Store(true)
				dec.Serve(r)
				t.on.Store(false)
			} else {
				tctl.Serve(r)
			}
		}
		tracedWalls = append(tracedWalls, time.Since(begin).Seconds())
		if got, want := tctl.Metrics().OHR(), bare.OHR(); got != want {
			lt.violations = append(lt.violations, fmt.Sprintf("sim-shift: ohr %v through the wrappers, %v without: tracing changed the outcome", got, want))
		}
		lt.set("decider.learn_ms", float64(ctl.LearningDuration().Nanoseconds())/1e6)
		lt.set("decider.expert_switches", float64(eng.ExpertSwitches()))
		lt.set("engine.dc_hit_ratio", ratio(float64(bare.DCHits), float64(bare.Requests-bare.HOCHits)))
		proc.record(lt, float64(tr.Len()))
	}
	lt.attempted = 2 * rounds * tr.Len()
	for i := range bareWalls {
		lt.wallS += bareWalls[i] + tracedWalls[i]
	}
	lt.bareMeanUS = median(bareWalls) / float64(tr.Len()) * 1e6
	lt.set("trace.overhead_ratio", ratio(median(tracedWalls), median(bareWalls)))
	return t.analyze(lyDecider), nil
}

// micro times four calls directly, outside any topology: they are too small
// to span inside a request (tens of nanoseconds against a clock read of
// similar size) yet sit on the cluster's or the learner's per-request path.
func micro(lt *layerTable, tr *trace.Trace) {
	reqs := tr.Requests
	if len(reqs) > 200_000 {
		reqs = reqs[:200_000]
	}
	perCall := func(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / float64(len(reqs)) }

	if ring, err := lb.NewRing(lb.Config{Servers: 3}); err == nil {
		start := time.Now()
		for _, r := range reqs {
			ring.RouteReplicated(r.ID, 1)
		}
		lt.set("ring.route_ns", perCall(start))
	}
	now := time.Unix(0, 0)
	if memb, err := gossip.New(gossip.Config{Nodes: 3, Self: -1, Clock: func() time.Time { return now }}); err == nil {
		entries := make([]gossip.Entry, 3)
		for i := range entries {
			entries[i] = gossip.Entry{Node: uint16(i), Seq: 1, Status: uint8(gossip.Alive)}
		}
		start := time.Now()
		for range reqs {
			for j := range entries {
				entries[j].Seq++
			}
			now = now.Add(250 * time.Millisecond)
			memb.Merge(0, entries)
		}
		lt.set("gossip.merge_ns", perCall(start))
	}
	if ex, err := features.NewExtractor(features.DefaultConfig()); err == nil {
		start := time.Now()
		for _, r := range reqs {
			ex.Observe(r)
		}
		lt.set("features.observe_ns", perCall(start))
	}
	// What one clock read costs: every span holds one of its own and two of
	// each child's, which matters where a layer's work is itself ~100 ns.
	t := newTracer(0)
	start := time.Now()
	for range reqs {
		_ = t.now()
	}
	lt.set("trace.clock_ns", perCall(start))
}

// procDelta is the whole process's resource use over a timed section. The
// generator, the proxies and the origin share the process, so these are
// totals, not the proxy's alone.
type procDelta struct {
	mallocs   uint64
	gcPauseNS uint64
	cpuNS     int64
	maxRSSKB  int64
}

func readProc() procDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procDelta{mallocs: ms.Mallocs, gcPauseNS: ms.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpuNS = ru.Utime.Nano() + ru.Stime.Nano()
		p.maxRSSKB = ru.Maxrss
	}
	return p
}

func (p procDelta) sub(q procDelta) procDelta {
	return procDelta{mallocs: p.mallocs - q.mallocs, gcPauseNS: p.gcPauseNS - q.gcPauseNS, cpuNS: p.cpuNS - q.cpuNS, maxRSSKB: p.maxRSSKB}
}

func (p procDelta) record(lt *layerTable, requests float64) {
	lt.set("proc.allocs_per_req", ratio(float64(p.mallocs), requests))
	lt.set("proc.gc_pause_ms", float64(p.gcPauseNS)/1e6)
	lt.set("proc.cpu_us_per_req", ratio(float64(p.cpuNS)/1e3, requests))
	lt.set("proc.peak_rss_mb", float64(p.maxRSSKB)/1024)
}
