package main

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/server"
	"darwin/internal/trace"
)

// layer names one boundary a request crosses. Spans are recorded from
// outside each layer (this file wraps the public seams), so the program under
// test carries no instrumentation of its own.
type layer uint8

const (
	lyLoadgen layer = iota // client send → body drained
	lyFront                // server.Front handler
	lyProxy                // server.Proxy handler, client-facing request
	lyPeer                 // server.Proxy handler answering a sibling's probe
	lyDecider              // core.Controller Serve/Lookup
	lyEngine               // cache.Sharded Serve/Lookup
	lyJournal              // diskcache.Store Put/Remove
	lyOrigin               // server.Origin handler
	numLayers
)

var layerNames = [numLayers]string{"loadgen", "front", "proxy", "peer", "decider", "engine", "journal", "origin"}

// span is one recorded interval, in nanoseconds since the tracer's base.
type span struct {
	start, end int64
	layer      layer
}

// tracer keeps spans in a preallocated slice; recording is one atomic add
// and one store, so wrappers may be called from any goroutine. Spans beyond
// the capacity are counted, not kept.
type tracer struct {
	t0    time.Time
	on    atomic.Bool // off = wrappers forward without recording (sim-shift sampling)
	n     atomic.Int64
	spans []span
}

func newTracer(capacity int) *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, capacity)}
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(l layer, start, end int64) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{start: start, end: end, layer: l}
	}
}

// begin opens a span: it returns the start time, or -1 while recording is
// off, which end then ignores.
func (t *tracer) begin() int64 {
	if !t.on.Load() {
		return -1
	}
	return t.now()
}

func (t *tracer) end(l layer, start int64) {
	if start >= 0 {
		t.add(l, start, t.now())
	}
}

// reset forgets every span recorded so far.
func (t *tracer) reset() { t.n.Store(0) }

// recorded returns the kept spans and how many were dropped for capacity.
func (t *tracer) recorded() (kept []span, dropped int64) {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// breakdown is the self-time table of one traced pass.
type breakdown struct {
	selfNS [numLayers]int64 // Σ over spans of (duration − part covered by children)
	// requests counts the outermost spans of the root layer — one per request
	// when one request is in flight — and latencyNS sums their durations: the
	// latency the self times must sum to. An outermost span of any other
	// layer lies outside every request; its time stays in selfNS and so
	// surfaces as a negative residual instead of vanishing.
	requests  int64
	latencyNS int64
	// clippedNS is time a child ran past its parent's end (a handler whose
	// client already had its answer, the second of two hedged fetches); it is
	// cut from the child so the table still sums, and reported so the cut is
	// visible.
	clippedNS int64
	dropped   int64
	// sorted, parent and request describe the nesting for the span file.
	sorted  []span
	parent  []int32
	request []int32
}

// analyze nests the spans by time. With one request in flight every span
// between a request's send and its completion belongs to that request, and a
// span's parent is the innermost interval enclosing its start, so no
// identifier has to travel with the request.
func (t *tracer) analyze(root layer) *breakdown {
	kept, dropped := t.recorded()
	s := append([]span(nil), kept...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].start != s[j].start {
			return s[i].start < s[j].start
		}
		return s[i].end > s[j].end
	})
	b := &breakdown{dropped: dropped, sorted: s, parent: make([]int32, len(s)), request: make([]int32, len(s))}
	type frame struct {
		idx     int
		covered int64 // part of the span its children cover
	}
	var stack []frame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sp := s[f.idx]
		b.selfNS[sp.layer] += sp.end - sp.start - f.covered
	}
	for i := range s {
		for len(stack) > 0 && s[stack[len(stack)-1].idx].end <= s[i].start {
			pop()
		}
		if len(stack) == 0 {
			if s[i].layer == root {
				b.requests++
				b.latencyNS += s[i].end - s[i].start
			}
			b.parent[i] = -1
			b.request[i] = int32(b.requests - 1)
		} else {
			p := &stack[len(stack)-1]
			if pe := s[p.idx].end; s[i].end > pe {
				b.clippedNS += s[i].end - pe
				s[i].end = pe
			}
			// Children of one parent never overlap: a span starting inside
			// its elder sibling is nested under it by the rule above.
			p.covered += s[i].end - s[i].start
			b.parent[i] = int32(p.idx)
			b.request[i] = b.request[p.idx]
		}
		stack = append(stack, frame{idx: i})
	}
	for len(stack) > 0 {
		pop()
	}
	return b
}

// selfUS is the layer's mean self time per request in microseconds.
func (b *breakdown) selfUS(l layer) float64 {
	return b.perRequestUS(b.selfNS[l])
}

// sumSelfUS is Σ self over every layer, per request.
func (b *breakdown) sumSelfUS() float64 {
	var sum float64
	for l := layer(0); l < numLayers; l++ {
		sum += b.selfUS(l)
	}
	return sum
}

// perRequestUS spreads a nanosecond total over the requests, in microseconds.
func (b *breakdown) perRequestUS(ns int64) float64 {
	if b.requests == 0 {
		return 0
	}
	return float64(ns) / float64(b.requests) / 1e3
}

// maxFileSpans bounds the span file: the aggregate table uses every span, the
// file keeps the head of the pass, which is enough to read individual
// requests without writing tens of megabytes per workload.
const maxFileSpans = 50_000

// encode renders the span file: one row per span, in start order.
func (b *breakdown) encode(workload string) ([]byte, error) {
	n := min(len(b.sorted), maxFileSpans)
	rows := make([][5]int64, n)
	for i, sp := range b.sorted[:n] {
		rows[i] = [5]int64{int64(b.request[i]), int64(sp.layer), int64(b.parent[i]), sp.start, sp.end - sp.start}
	}
	return json.Marshal(struct {
		Workload string            `json:"workload"`
		Unit     string            `json:"unit"`
		Layers   [numLayers]string `json:"layers"`
		Columns  [5]string         `json:"columns"`
		Spans    [][5]int64        `json:"spans"`
	}{workload, "ns", layerNames, [5]string{"request", "layer", "parent", "start", "duration"}, rows})
}

// tracedHandler records a span around an http.Handler. A proxy handler
// answering a sibling's probe is its own layer, so the price of peer fill is
// not folded into the client-facing proxy's self time.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
	layer layer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l := h.layer
	if l == lyProxy && len(r.Header[server.PeerHopHeader]) > 0 {
		l = lyPeer
	}
	start := h.t.begin()
	h.inner.ServeHTTP(w, r)
	h.t.end(l, start)
}

// tracedDecider sits between server.Proxy and core.Controller. It forwards
// Concurrent and Lookup: without them the proxy would wrap it in its
// global-mutex adapter and lose the probe-then-commit miss path, and the
// traced topology would no longer be the deployed one.
type tracedDecider struct {
	inner *core.Controller
	t     *tracer
}

func (d tracedDecider) Serve(r trace.Request) cache.Result {
	start := d.t.begin()
	res := d.inner.Serve(r)
	d.t.end(lyDecider, start)
	return res
}

func (d tracedDecider) Lookup(id uint64) cache.Result {
	start := d.t.begin()
	res := d.inner.Lookup(id)
	d.t.end(lyDecider, start)
	return res
}

func (d tracedDecider) Metrics() cache.Metrics { return d.inner.Metrics() }
func (d tracedDecider) Name() string           { return d.inner.Name() }
func (d tracedDecider) Concurrent() bool       { return d.inner.Concurrent() }

// tracedEngine sits between core.Controller and cache.Sharded. SyncMetrics is
// forwarded because the controller discovers it by type assertion: without it
// round rewards would be computed from counters up to a publication batch
// stale, and the traced run would learn differently from the bare one.
type tracedEngine struct {
	inner *cache.Sharded
	t     *tracer
}

func (e tracedEngine) Serve(r trace.Request) cache.Result {
	start := e.t.begin()
	res := e.inner.Serve(r)
	e.t.end(lyEngine, start)
	return res
}

func (e tracedEngine) Lookup(id uint64) cache.Result {
	start := e.t.begin()
	res := e.inner.Lookup(id)
	e.t.end(lyEngine, start)
	return res
}

func (e tracedEngine) Metrics() cache.Metrics   { return e.inner.Metrics() }
func (e tracedEngine) ResetMetrics()            { e.inner.ResetMetrics() }
func (e tracedEngine) SetExpert(x cache.Expert) { e.inner.SetExpert(x) }
func (e tracedEngine) Expert() cache.Expert     { return e.inner.Expert() }
func (e tracedEngine) Concurrent() bool         { return e.inner.Concurrent() }
func (e tracedEngine) SyncMetrics()             { e.inner.SyncMetrics() }

// tracedLog records a span around each journal append. It runs under the
// owning shard's lock, like the store it wraps.
type tracedLog struct {
	inner cache.DCLog
	t     *tracer
}

func (j tracedLog) Put(id uint64, size int64) {
	start := j.t.begin()
	j.inner.Put(id, size)
	j.t.end(lyJournal, start)
}

func (j tracedLog) Remove(id uint64) {
	start := j.t.begin()
	j.inner.Remove(id)
	j.t.end(lyJournal, start)
}

// The wrappers must keep satisfying the seams they stand in.
var (
	_ server.Decider         = tracedDecider{}
	_ server.Lookuper        = tracedDecider{}
	_ cache.ConcurrentEngine = tracedEngine{}
	_ cache.DCLog            = tracedLog{}
)
