package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"darwin/internal/exp"
	"darwin/internal/trace"
)

// rep is one timed repetition of one workload: a fresh set-up, an untimed
// warm-up prefix, and a fixed request count under the clock.
type rep struct {
	setupS  float64 // training + trace generation + topology + warm-up
	wallS   float64 // timed wall
	reqPerS float64
	p50us   float64
	p99us   float64
	ohr     float64
	samples int // latency samples behind p50/p99
	beyond  int // samples beyond the p99 position
	// attempted and failed cover warm-up and timed requests alike: a failure
	// during warm-up is as wrong as one under the clock.
	attempted, failed int
	violations        []string
}

// bench holds what every repetition of a process shares.
type bench struct {
	sc     scale
	seed   int64
	outDir string
	dirSeq int // scratch directories handed out so far
}

// scratchDir returns a fresh directory under the output directory for one
// topology's journals. It stays inside the working tree: the benchmark
// touches nothing outside the checkout it runs in.
func (b *bench) scratchDir() (string, error) {
	b.dirSeq++
	dir := filepath.Join(b.outDir, fmt.Sprintf("tmp-%d-%d", os.Getpid(), b.dirSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

// setUp is the part of a repetition before any request: offline training (on
// the scale's corpus, as a node does at start) and the workload's trace.
func (b *bench) setUp(w workload) (*exp.Corpus, *trace.Trace, error) {
	c, err := exp.BuildCorpus(b.sc.train, "ohr")
	if err != nil {
		return nil, nil, err
	}
	tr, err := b.sc.trace(w, b.seed)
	return c, tr, err
}

// runRep runs one timed repetition with tracing off.
func (b *bench) runRep(w workload) (*rep, error) {
	start := time.Now()
	c, tr, err := b.setUp(w)
	if err != nil {
		return nil, err
	}
	if w.nodes == 0 {
		return b.simRep(c, tr, start)
	}
	p, err := b.httpPass(w, c, tr, clients, nil, start)
	if err != nil {
		return nil, err
	}
	return p.rep, nil
}

// pass is one run of an HTTP workload through a fresh topology, with
// everything the layer table needs read around the timed section.
type pass struct {
	rep        *rep
	timed      *tally
	delta      counters // per-layer counters over the timed section
	proc       procDelta
	meanFullUS float64 // mean send → body drained
}

func (b *bench) httpPass(w workload, c *exp.Corpus, tr *trace.Trace, nClients int, t *tracer, start time.Time) (*pass, error) {
	dir, err := b.scratchDir()
	if err != nil {
		return nil, err
	}
	tp, err := buildTopology(c, w.nodes, dir, t)
	if err != nil {
		return nil, err
	}
	lg, err := newLoadgen(tp.url, renderPlan(tr), nClients, t)
	if err != nil {
		_ = tp.close() // already failing; the loadgen error is the one to report
		return nil, err
	}
	warm, _ := b.sc.sizes(w)
	warmed := lg.run(0, warm)
	if t != nil {
		t.reset() // the table describes the timed section, not the cold cache
	}
	// Every timed section starts from a collected heap, so that when the
	// collector next runs does not depend on what set-up left behind.
	runtime.GC()
	r := &rep{setupS: time.Since(start).Seconds()}

	before, procBefore := tp.read(), readProc()
	timed := lg.run(warm, tr.Len())
	after, procAfter := tp.read(), readProc()

	r.violations = verify(w, tp, nClients, warmed, timed, after)
	lg.close()
	if err := tp.close(); err != nil {
		return nil, err
	}

	r.wallS = timed.wall.Seconds()
	r.reqPerS = float64(timed.ok()) / r.wallS
	p50, _ := percentile(timed.firstByte, 50)
	p99, beyond := percentile(timed.firstByte, 99)
	r.p50us, r.p99us = float64(p50)/1e3, float64(p99)/1e3
	r.samples, r.beyond = len(timed.firstByte), beyond
	if n := timed.ok(); n > 0 {
		r.ohr = float64(timed.hoc) / float64(n)
	}
	r.attempted = warmed.attempted + timed.attempted
	r.failed = warmed.failed + timed.failed
	p := &pass{rep: r, timed: timed, delta: after.sub(before), proc: procAfter.sub(procBefore)}
	if n := timed.ok(); n > 0 {
		p.meanFullUS = float64(timed.fullNS) / float64(n) / 1e3
	}
	return p, nil
}

// verify checks the outputs of one pass against what the program's own
// counters say happened. Each identity asserted is exact by construction, so
// any difference is a bug in the program or the benchmark, never noise.
func verify(w workload, tp *topology, nClients int, warmed, timed *tally, end counters) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(w.name+": "+format, args...)) }
	all := &tally{}
	all.merge(warmed)
	all.merge(timed)
	if all.failed > 0 {
		fail("%d of %d requests failed (%d shed): non-200, short body, transport error or unlabelled answer", all.failed, all.attempted, all.shed)
	}
	if got := all.hoc + all.dc + all.miss; got != all.ok() {
		fail("X-Cache tallies %d != %d answered requests", got, all.ok())
	}
	for i, n := range tp.nodes {
		if m := n.proxy.Metrics(); m.HOCHits+m.DCHits+m.Misses != m.Requests {
			fail("node %d: hits+misses %d != requests %d", i, m.HOCHits+m.DCHits+m.Misses, m.Requests)
		}
	}
	// A node serves each client request through its decider exactly once,
	// and each sibling probe it answers once more.
	if want := int64(all.ok()) + end[ctPeerServed]; end[ctRequests] != want {
		fail("decider requests %d != client requests %d + peer probes served %d", end[ctRequests], all.ok(), end[ctPeerServed])
	}
	if len(tp.nodes) == 1 {
		if end[ctHOCHits] != int64(all.hoc) || end[ctDCHits] != int64(all.dc) || end[ctMisses] != int64(all.miss) {
			fail("client X-Cache tallies hoc/dc/miss %d/%d/%d != Proxy.Metrics %d/%d/%d",
				all.hoc, all.dc, all.miss, end[ctHOCHits], end[ctDCHits], end[ctMisses])
		}
	}
	// Without hedges or retries, every fetch the proxies count reached the
	// origin once.
	if end[ctHedges]+end[ctRetries] == 0 && end[ctOriginRequests] != end[ctOriginFetches] {
		fail("origin served %d requests, the proxies count %d fetches", end[ctOriginRequests], end[ctOriginFetches])
	}
	// With one client, every miss no sibling filled is one origin fetch of
	// exactly its size. With two the identity is only nearly true — a request
	// can fetch and then find its object admitted by the other client's, or
	// find it resident and see it evicted before it commits — so it is
	// asserted where it is exact.
	if nClients == 1 && end[ctHedges]+end[ctRetries] == 0 {
		if want := int64(all.miss - all.peerFill); end[ctOriginRequests] != want || end[ctOriginBytes] != all.missBytes {
			fail("origin served %d requests / %d bytes, the client saw %d origin-filled misses / %d bytes",
				end[ctOriginRequests], end[ctOriginBytes], want, all.missBytes)
		}
	}
	return bad
}

// simRep is one sim-shift repetition: simPlays replays of the trace, each on
// a fresh controller and engine, one goroutine. Throughput and batch latency
// are the median play's; ohr must be the same on every play.
func (b *bench) simRep(c *exp.Corpus, tr *trace.Trace, start time.Time) (*rep, error) {
	batches := simBatches(tr)
	r := &rep{}
	var rates, p50s, p99s []float64
	for play := 0; play < simPlays; play++ {
		_, ctl, err := newEngine(c, nil, nil)
		if err != nil {
			return nil, err
		}
		if play == 0 {
			r.setupS = time.Since(start).Seconds()
		}
		lat := make([]int64, 0, len(batches))
		runtime.GC()
		begin := time.Now()
		last := begin
		for _, bt := range batches {
			ctl.Play(bt)
			now := time.Now()
			lat = append(lat, int64(now.Sub(last)))
			last = now
		}
		wall := last.Sub(begin).Seconds()
		r.wallS += wall
		rates = append(rates, float64(len(batches)*simBatch)/wall)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50, _ := percentile(lat, 50)
		p99, beyond := percentile(lat, 99)
		p50s, p99s = append(p50s, float64(p50)/simBatch/1e3), append(p99s, float64(p99)/simBatch/1e3)
		r.samples, r.beyond = len(lat), beyond
		m := ctl.Metrics()
		if m.HOCHits+m.DCHits+m.Misses != m.Requests || m.Requests != int64(len(batches)*simBatch) {
			r.violations = append(r.violations, fmt.Sprintf("sim-shift: hits+misses %d, requests %d, played %d",
				m.HOCHits+m.DCHits+m.Misses, m.Requests, len(batches)*simBatch))
		}
		if ohr := m.OHR(); play == 0 {
			r.ohr = ohr
		} else if ohr != r.ohr {
			r.violations = append(r.violations, fmt.Sprintf("sim-shift: ohr %v on play %d, %v on play 0: not deterministic per seed", ohr, play, r.ohr))
		}
	}
	r.reqPerS, r.p50us, r.p99us = median(rates), median(p50s), median(p99s)
	r.attempted = simPlays * len(batches) * simBatch
	return r, nil
}

// simBatches cuts the trace into the batches the timed loop plays. A tail
// shorter than a batch is left out, so every latency sample covers the same
// number of requests.
func simBatches(tr *trace.Trace) []*trace.Trace {
	var out []*trace.Trace
	for lo := 0; lo+simBatch <= tr.Len(); lo += simBatch {
		out = append(out, &trace.Trace{Requests: tr.Requests[lo : lo+simBatch]})
	}
	return out
}
