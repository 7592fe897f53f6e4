// Package server is the reproduction's ATS-like prototype (§5): an HTTP
// caching proxy whose Hot Object Cache admission is driven by a pluggable
// decider (a static expert or Darwin's online controller), an origin server
// with injected WAN latency, and a closed-loop load generator measuring
// first-byte latency and application throughput (§6.4).
//
// The request path mirrors the paper's testbed shape: an HOC hit is served
// straight from memory; a DC hit pays a configurable disk-access latency; a
// miss pays a round trip to the origin, which itself delays each response by
// the injected origin RTT. Cache-state concurrency is the decider's problem:
// the proxy takes only deciders over a concurrency-safe engine (the sharded
// cache engine stripes the object space across per-shard mutexes; one shard
// is the single HOC lock whose contention the paper observes). The critical
// sections cover only decider calls, never body writes or origin I/O, and
// the proxy's own data-plane counters are lock-striped (counters[ProxyStats],
// metrics.go) so handlers for unrelated objects never contend and Stats reads
// are coherent.
//
// Proxy is one request pipeline. Every request crosses the same stages in
// the same order; a stage whose own configuration value is zero is absent,
// it does not select another path:
//
//  1. parse /obj/<id>?size=<n>;
//  2. peer-probe guard — a sibling's probe is answered from memory or 404
//     and goes no further (SetPeers);
//  3. admit — bounded in-flight budget (Overload.MaxInFlight);
//  4. Lookup — a residency probe that mutates nothing; a hit commits;
//  5. on a miss: client deadline (Overload.PropagateDeadline) and the
//     doomed-work shed, then peer fill (SetPeers), then the origin fetch —
//     coalesce (Resilience.Coalesce) → retry with backoff (MaxAttempts > 1)
//     → circuit breaker and retry budget (Overload.Enabled) → hedge
//     (Overload.Hedge), each attempt validated against the full body;
//  6. commit through the decider's Serve, only now that the bytes are known
//     good — a failed fetch is a proxy error (shed, stale serve under
//     Resilience.ServeStale, or 502), never a cache admission, so origin
//     faults cannot corrupt the decider's view of what is resident;
//  7. respond from the shared static body.
//
// Resilience{} with Overload{} is therefore the bare happy-path testbed (one
// fetch per miss, 502 on failure) and the experiments' control arm;
// DefaultResilience() with DefaultOverload() is what cmd/darwin-proxy
// deploys. Both run the same code.
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/breaker"
	"darwin/internal/cache"
	"darwin/internal/trace"
)

// Origin is the content provider's origin server: it serves any object of
// any requested size after an injected WAN delay.
type Origin struct {
	// Latency is the injected delay per request (the paper injects 100 ms
	// between proxy and origin; tests use smaller values).
	Latency time.Duration
	// requests/bytes count served work (midgress accounting). Atomics, so
	// high-concurrency request accounting never serializes handlers.
	requests atomic.Int64
	bytes    atomic.Int64
}

// account records one served request of the given size.
func (o *Origin) account(size int64) {
	o.requests.Add(1)
	o.bytes.Add(size)
}

// ServeHTTP implements http.Handler for GET /obj/<id>?size=<bytes>.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, size, err := parseObjectURL(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if o.Latency > 0 {
		time.Sleep(o.Latency)
	}
	o.account(size)
	h := w.Header()
	setContentType(h)
	setContentLength(h, size)
	w.WriteHeader(http.StatusOK)
	_ = writeBody(w, size) // client went away; nothing useful to do with the error
}

// Stats returns the origin's served request and byte counts (midgress).
func (o *Origin) Stats() (requests, bytes int64) {
	return o.requests.Load(), o.bytes.Load()
}

// parseObjectURL extracts (id, size) from /obj/<id>?size=<n>. It is the
// first step of every request, so the query parameter is scanned in place:
// r.URL.Query() materializes a url.Values map (two allocations plus the
// string copies) per call, where the common "size=<digits>" form needs none.
func parseObjectURL(r *http.Request) (uint64, int64, error) {
	const prefix = "/obj/"
	path := r.URL.Path
	if len(path) <= len(prefix) || path[:len(prefix)] != prefix {
		return 0, 0, fmt.Errorf("server: bad path %q", path)
	}
	id, err := strconv.ParseUint(path[len(prefix):], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("server: bad object id: %v", err)
	}
	raw := sizeParam(r.URL.RawQuery)
	size, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || size < 0 {
		return 0, 0, fmt.Errorf("server: bad size %q", raw)
	}
	return id, size, nil
}

// sizeParam returns the first "size" value in rawQuery, decoded. The common
// case — a plain decimal value — is returned as a zero-allocation substring;
// values carrying query escapes take the url.QueryUnescape slow path so the
// accepted language matches what url.Values.Get would have produced ('+' is
// a space, %XX decodes, malformed escapes reject the request).
func sizeParam(rawQuery string) string {
	for len(rawQuery) > 0 {
		seg := rawQuery
		if i := strings.IndexByte(seg, '&'); i >= 0 {
			seg, rawQuery = seg[:i], rawQuery[i+1:]
		} else {
			rawQuery = ""
		}
		val, ok := strings.CutPrefix(seg, "size=")
		if !ok {
			continue
		}
		if strings.IndexByte(val, '%') < 0 && strings.IndexByte(val, '+') < 0 {
			return val
		}
		dec, err := url.QueryUnescape(val)
		if err != nil {
			return "" // malformed escape: reject, like url.ParseQuery would
		}
		return dec
	}
	return ""
}

// Decider is the cache-management brain plugged into the proxy: a static
// expert or Darwin's online controller, over a concurrency-safe cache engine.
type Decider interface {
	Lookuper
	// Serve accounts one request and decides where it is served from.
	Serve(r trace.Request) cache.Result
	// Metrics exposes accumulated cache metrics, exact as of the call (any
	// batched counter publication is flushed first).
	Metrics() cache.Metrics
	// Name labels the scheme.
	Name() string
	// Concurrent reports whether the decider may be driven from multiple
	// goroutines at once. NewOverloadProxy refuses one that answers false.
	Concurrent() bool
}

// Lookuper is the residency probe every Decider carries: it mutates no cache
// state, metrics, or frequency tracking. The pipeline probes before fetching
// and commits the request through Serve only after the bytes are known good,
// so a failed fetch cannot leave a phantom admission in the cache (the
// decider believing an object is DC-resident whose bytes never arrived). Any
// answer but cache.Miss also makes the object eligible for a stale serve.
type Lookuper interface {
	Lookup(id uint64) cache.Result
}

// Resilience configures the origin-fetch stages of the pipeline. Each field
// gates its own stage; the zero value leaves a single unretried, uncoalesced
// fetch per miss and 502 on failure.
type Resilience struct {
	// MaxAttempts is the total origin fetch attempts per miss (<= 1 = no
	// retry stage).
	MaxAttempts int
	// FetchTimeout bounds each attempt, headers and full body (0 = no
	// per-attempt deadline).
	FetchTimeout time.Duration
	// BackoffBase is the pre-jitter backoff before the first retry; it
	// doubles per retry up to backoffCap (0 = retry immediately).
	BackoffBase time.Duration
	// Coalesce enables single-flight coalescing of concurrent misses.
	Coalesce bool
	// ServeStale enables degraded mode: when the origin stays down after
	// retries, an object the engine holds a record of (Lookup answers other
	// than Miss) is answered stale instead of 502.
	ServeStale bool
}

// backoffCap caps the exponential retry backoff, and jitterSeed seeds its
// jitter: values no deployment or experiment ever varied.
const (
	backoffCap = 250 * time.Millisecond
	jitterSeed = 1
)

// DefaultResilience returns the hardened defaults used by cmd/darwin-proxy
// and the chaos experiment: 4 attempts, 2 s per-attempt deadline, 5 ms base
// backoff (capped at backoffCap), coalescing and serve-stale on.
func DefaultResilience() Resilience {
	return Resilience{
		MaxAttempts:  4,
		FetchTimeout: 2 * time.Second,
		BackoffBase:  5 * time.Millisecond,
		Coalesce:     true,
		ServeStale:   true,
	}
}

// Validate checks a Resilience assembled from outside input (flags, config
// files) and names the first value no operator can have meant. It is stricter
// than the constructor about MaxAttempts: code may leave it zero to say "no
// retry stage", but an operator who types 0 attempts has asked for nothing.
func (r Resilience) Validate() error {
	switch {
	case r.MaxAttempts < 1:
		return fmt.Errorf("server: MaxAttempts %d, want >= 1 (1 = no retry)", r.MaxAttempts)
	case r.FetchTimeout < 0:
		return fmt.Errorf("server: negative FetchTimeout %v", r.FetchTimeout)
	case r.BackoffBase < 0:
		return fmt.Errorf("server: negative BackoffBase %v", r.BackoffBase)
	}
	return nil
}

// ProxyStats is the proxy's data-plane counters: the striped storage, the
// snapshot Stats returns, and (by field name) the node's /metrics lines.
type ProxyStats struct {
	// OriginFetches counts fetch attempts sent to the origin.
	OriginFetches int64
	// Retries counts attempts beyond the first per miss.
	Retries int64
	// FetchFailures counts misses that exhausted every attempt.
	FetchFailures int64
	// Coalesced counts requests that piggybacked on another request's fetch.
	Coalesced int64
	// StaleServes counts degraded-mode responses.
	StaleServes int64
	// Errors counts client-visible 5xx responses issued by this proxy.
	Errors int64 `metric:"proxy_errors"`
	// Shed counts requests the overload stages refused to do full work for
	// (admission, breaker, or deadline sheds — answered stale or 503).
	Shed int64
	// DeadlineSheds counts misses shed because the client's remaining
	// deadline could not cover a fetch (a subset of Shed).
	DeadlineSheds int64
	// BreakerRejects counts fetch attempts denied by the open circuit
	// breaker (no origin traffic was generated for them).
	BreakerRejects int64
	// Hedges counts hedged second fetches launched; HedgeWins counts hedges
	// that answered before the primary fetch.
	Hedges, HedgeWins int64
	// RetryBudgetDenied counts retries suppressed by the rolling-window
	// retry budget (the anti-retry-storm cap).
	RetryBudgetDenied int64
	// PeerProbes counts probes sent to ring siblings; PeerFills counts
	// misses answered by a sibling instead of the origin; PeerErrors counts
	// failed probes (transport errors, bad statuses, truncated bodies);
	// PeerRejects counts probes suppressed by an open sibling breaker.
	PeerProbes, PeerFills, PeerErrors, PeerRejects int64
	// PeerServed counts sibling probes this node answered with a hit.
	PeerServed int64
	// PeerSkipsDead counts probes suppressed because the gossip layer
	// graded the designated holder Dead.
	PeerSkipsDead int64
	// GossipExchanges counts /gossip requests answered.
	GossipExchanges int64
	// StateMerges counts donor checkpoint frames accepted on /state;
	// StateRejects counts frames refused by validation (the inheritor's
	// state was untouched); StatePushes counts drain-time frames this node
	// delivered to its ring successor.
	StateMerges, StateRejects, StatePushes int64
	// CommitRaced counts commits whose Serve disagreed with the residency
	// the request was routed on: routed as a hit but evicted before the
	// commit, or routed as a miss but admitted first by another request (a
	// coalesced one included). The request is served either way.
	CommitRaced int64
}

// Proxy is the CDN edge server.
type Proxy struct {
	// decider drives HOC/DC decisions and is safe for concurrent callers (the
	// constructor refuses one that is not). Its critical sections cover only
	// decider calls, never origin I/O or body writes.
	decider Decider

	// origin fetches misses from the origin base URL the proxy was built
	// with (e.g. http://127.0.0.1:9000).
	origin *upstream
	// DCLatency is the injected disk-read delay for DC hits.
	DCLatency time.Duration

	res     Resilience
	ov      Overload
	flights flightGroup

	// brk gates origin fetch attempts and retryBudget caps the backoff path;
	// both are nil unless ov.Enabled. Readiness and stats reads take their
	// mutexes for a copy, a few times a second at most.
	brk         *breaker.Breaker
	retryBudget *breaker.Budget
	// inflight gauges admitted requests for the bounded-in-flight budget.
	inflight atomic.Int64

	// peers is the cluster's peer-fill layer (peer.go); nil outside a
	// cluster. Immutable after SetPeers.
	peers *peerSet

	// handoff wires /state to the binary's checkpoint codec (zero when the
	// drain-time handoff is not enabled).
	handoff StateHandoff

	rngMu sync.Mutex
	rng   *rand.Rand // guarded by rngMu; retry jitter only

	// stats holds the data-plane counters, striped by object id so
	// concurrent handlers never contend on one counter line and Stats
	// snapshots are coherent without a global lock.
	stats *counters[ProxyStats]

	start time.Time
}

// NewOverloadProxy builds the proxy: one request pipeline whose resilience
// and overload stages are each present or absent by their own field in res
// and ov. Resilience{} with Overload{} is the bare pipeline (one fetch per
// miss, 502 on failure); DefaultResilience() with DefaultOverload() is what
// cmd/darwin-proxy deploys.
//
// An originURL that is not http://host[:port] is not refused here (the
// signature has no error): every origin fetch fails with the reason.
//
// It panics if decider.Concurrent() is false: handlers call the decider from
// many goroutines. A single-lock data plane is cache.NewSharded(cfg, 1) or
// baselines.NewStaticSharded(e, cfg, 1), bit-identical to the serial
// Hierarchy.
func NewOverloadProxy(decider Decider, originURL string, dcLatency time.Duration, res Resilience, ov Overload) *Proxy {
	if !decider.Concurrent() {
		panic(fmt.Sprintf("server: decider %q is not safe for concurrent callers; build it over cache.NewSharded(cfg, 1) or baselines.NewStaticSharded(e, cfg, 1)", decider.Name()))
	}
	ov = ov.withDefaults()
	p := &Proxy{
		decider:   decider,
		origin:    newUpstream(originURL),
		DCLatency: dcLatency,
		res:       res,
		ov:        ov,
		rng:       rand.New(rand.NewSource(jitterSeed)),
		stats:     newCounters[ProxyStats](),
		start:     time.Now(),
	}
	if ov.Enabled {
		// The retry budget is the breaker's half-open probe budget per
		// breaker window: the backoff path never probes a sick origin harder
		// than the breaker itself would.
		b := ov.Breaker
		p.brk = breaker.New(b)
		p.retryBudget = breaker.NewBudget(b.HalfOpenProbes, b.Window, b.Clock)
	}
	return p
}

// withDefaults is the one place a zero field is read as "the default" rather
// than "stage absent" (no Resilience field is): the doomed-fetch floor and
// the breaker's tuning, which the retry budget derives from.
func (ov Overload) withDefaults() Overload {
	if ov.MinFetchBudget <= 0 {
		ov.MinFetchBudget = 50 * time.Millisecond
	}
	ov.Breaker = ov.Breaker.WithDefaults()
	return ov
}

// Metrics returns the decider's cache metrics, exact as of the call.
func (p *Proxy) Metrics() cache.Metrics { return p.decider.Metrics() }

// Stats returns a coherent snapshot of the proxy's data-plane counters:
// every stripe is observed at one consistent instant, so counters bumped in
// one update (a deadline shed and its shed, a hedge and its origin fetch) are
// never seen torn. The read holds one stripe mutex at a time, for a copy.
func (p *Proxy) Stats() ProxyStats { return p.stats.snapshot() }

// ServeHTTP implements http.Handler for GET /obj/<id>?size=<n>: the pipeline
// from parse to the Lookup-hit commit. Everything below a Lookup miss is
// serveMiss.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, size, err := parseObjectURL(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req := trace.Request{ID: id, Size: size, Time: time.Since(p.start).Microseconds()}
	if p.peers != nil {
		if isPeerProbe(r) {
			// A sibling's probe: answered from memory or 404, before
			// admission — the probe path is strictly cheaper than the
			// admission work that would guard it, and must never recurse
			// into peer or origin fetches (loop guard).
			p.servePeerProbe(w, r, req)
			return
		}
	}
	if p.ov.MaxInFlight > 0 {
		// Admission runs before any cache or origin work: a request over the
		// in-flight budget is shed for pennies (stale or 503) so overload
		// never turns into an unbounded queue of doomed work.
		n := p.inflight.Add(1)
		defer p.inflight.Add(-1)
		if n > p.ov.MaxInFlight {
			p.shed(w, req, "inflight")
			return
		}
	}
	if res := p.decider.Lookup(id); res == cache.HOCHit || res == cache.DCHit {
		p.commit(w, req, res)
		return
	}
	p.serveMiss(w, r, req)
}

// commit is the pipeline's one exit for a request whose bytes are in hand —
// a residency hit, a validated peer fill, or a successful origin fetch; routed
// is the residency the request took that path on (Miss for a fetch). Only
// here does the request enter the decider's books: Serve accounts it (and
// reports a hit if a coalesced sibling request already admitted the object),
// a Serve that disagrees with routed is counted as CommitRaced, and the
// response is written.
func (p *Proxy) commit(w http.ResponseWriter, req trace.Request, routed cache.Result) {
	res := p.decider.Serve(req)
	if (res == cache.Miss) != (routed == cache.Miss) {
		p.stats.add(req.ID, func(s *ProxyStats) { s.CommitRaced++ })
	}
	setXCache(w.Header(), res)
	p.serveLocal(w, res, req.Size)
}

// serveLocal writes a response body from the proxy itself (commits and stale
// serves), paying the DC delay for disk hits. Pre-serialized headers and the
// shared static body chunk keep it at zero allocations per request above
// net/http's own internals.
func (p *Proxy) serveLocal(w http.ResponseWriter, res cache.Result, size int64) {
	if res == cache.DCHit && p.DCLatency > 0 {
		time.Sleep(p.DCLatency)
	}
	h := w.Header()
	setContentType(h)
	setContentLength(h, size)
	w.WriteHeader(http.StatusOK)
	_ = writeBody(w, size) // client went away; nothing useful to do with the error
}

// serveMiss is the pipeline below a Lookup miss: client deadline → doomed
// shed → peer fill → origin fetch (fetchOrigin's stages) → commit, or on
// failure shed / stale / 502. The request is committed only once its bytes
// are known good, so a failure here is a proxy error, never a cache
// admission.
func (p *Proxy) serveMiss(w http.ResponseWriter, r *http.Request, req trace.Request) {
	ctx := r.Context()
	if d := p.clientDeadline(r); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// A miss whose remaining client deadline cannot cover a fetch is doomed
	// work — answer it cheaply now (stale or 503) instead of queueing a fetch
	// the client will never see complete.
	dl, hasDeadline := ctx.Deadline()
	if hasDeadline && time.Until(dl) < p.ov.MinFetchBudget {
		p.shed(w, req, "deadline")
		return
	}
	// Peer fill: before paying the origin hop, ask the ring siblings the
	// front tier would have routed this object to. (Requests carrying the
	// probe header never reach this path, so a two-node cycle terminates
	// after one hop.)
	if p.peers != nil && p.fetchPeer(ctx, req.ID, req.Size, replicas(r)) {
		w.Header()[PeerHeader] = peerFillValue
		p.commit(w, req, cache.Miss)
		return
	}
	err := p.fetchOrigin(ctx, req.ID, req.Size)
	if err == nil {
		p.commit(w, req, cache.Miss)
		return
	}
	// An open breaker or an expired client deadline is not an origin failure
	// to 502 on, it is load the pipeline refused — shed it (stale or
	// 503+Retry-After) so the client backs off instead of retrying into the
	// same wall.
	if errors.Is(err, breaker.ErrOpen) {
		p.shed(w, req, "breaker")
		return
	}
	if hasDeadline && errors.Is(err, context.DeadlineExceeded) {
		p.shed(w, req, "deadline")
		return
	}
	// Degraded mode: the origin is down and retries are exhausted. Serve the
	// object stale if the engine holds its record, else surface the 502.
	if p.servedBefore(req.ID) {
		p.stats.add(req.ID, func(s *ProxyStats) { s.StaleServes++ })
		p.serveStale(w, req.Size, "")
		return
	}
	p.stats.add(req.ID, func(s *ProxyStats) { s.Errors++ })
	http.Error(w, fmt.Sprintf("server: origin unavailable: %v", err), http.StatusBadGateway)
}

// servedBefore reports whether id may be answered stale: ServeStale is on and
// the engine holds id's record — every object this node committed, restored
// from its checkpoint or journal, or merged from a drain handoff. Bodies are
// deterministic, so the record is all a stale serve needs.
func (p *Proxy) servedBefore(id uint64) bool {
	return p.res.ServeStale && p.decider.Lookup(id) != cache.Miss
}

// serveStale answers stale — a fast, degraded success — an object
// servedBefore vouched for. A non-empty shed reason marks the response
// as one the overload stages refused full work for.
func (p *Proxy) serveStale(w http.ResponseWriter, size int64, shed string) {
	h := w.Header()
	h["X-Cache"] = xcacheStale
	if shed != "" {
		h.Set(ShedHeader, shed)
	}
	h.Set("Warning", `110 darwin-proxy "response is stale"`)
	p.serveLocal(w, cache.HOCHit, size)
}

// fetchOrigin fetches one object from the origin through the coalesce →
// retry/backoff → breaker → hedge stages. Coalesced fetches run under a
// detached context: their outcome is shared by every waiter, so they must
// not die with the leader's client connection. The detached fetch keeps the
// leader's *deadline* (but not its cancellation), so a doomed shared fetch
// is still cut short, and waiters stop waiting when their own deadline
// expires.
func (p *Proxy) fetchOrigin(ctx context.Context, id uint64, size int64) error {
	if !p.res.Coalesce {
		return p.fetchRetry(ctx, id, size)
	}
	err, shared := p.flights.do(ctx, flightKey{id: id, size: size}, func() error {
		fctx := context.Background()
		if dl, ok := ctx.Deadline(); ok {
			var cancel context.CancelFunc
			fctx, cancel = context.WithDeadline(fctx, dl)
			defer cancel()
		}
		return p.fetchRetry(fctx, id, size)
	})
	if shared {
		p.stats.add(id, func(s *ProxyStats) { s.Coalesced++ })
	}
	return err
}

// fetchRetry runs up to MaxAttempts origin fetches with exponential backoff
// and jitter between attempts. With a breaker present every attempt must
// pass it (an open breaker fails the miss immediately with ErrOpen), and
// with a retry budget every attempt beyond the first must win a token from
// it — the cap that keeps the backoff path from probing a sick origin harder
// than the breaker's half-open budget.
func (p *Proxy) fetchRetry(ctx context.Context, id uint64, size int64) error {
	var lastErr error
	for attempt := 1; ; attempt++ {
		if p.brk != nil && !p.brk.Allow() {
			p.stats.add(id, func(s *ProxyStats) { s.BreakerRejects++ })
			lastErr = breaker.ErrOpen
			break
		}
		p.stats.add(id, func(s *ProxyStats) { s.OriginFetches++ })
		err := p.fetchMaybeHedged(ctx, id, size)
		if p.brk != nil {
			p.brk.Record(err == nil)
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil || attempt >= p.res.MaxAttempts {
			break
		}
		if p.retryBudget != nil && !p.retryBudget.Allow() {
			p.stats.add(id, func(s *ProxyStats) { s.RetryBudgetDenied++ })
			break
		}
		p.stats.add(id, func(s *ProxyStats) { s.Retries++ })
		if sleepCtx(ctx, p.backoff(attempt)) != nil {
			break
		}
	}
	p.stats.add(id, func(s *ProxyStats) { s.FetchFailures++ })
	return lastErr
}

// backoff returns the delay before the given retry (1-based): exponential
// with "equal jitter" (half fixed, half uniform) so synchronized retry storms
// against a recovering origin desynchronize. The doubling stops at
// backoffCap, so no retry count can overflow it negative.
func (p *Proxy) backoff(retry int) time.Duration {
	d := p.res.BackoffBase
	for i := 1; i < retry && 0 < d && d < backoffCap; i++ {
		d *= 2
	}
	d = min(d, backoffCap)
	if d <= 0 {
		return 0
	}
	p.rngMu.Lock()
	j := time.Duration(p.rng.Int63n(int64(d)/2 + 1))
	p.rngMu.Unlock()
	return d/2 + j
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// originBackstop bounds an origin fetch no deadline reaches: the bare
// pipeline has no per-attempt FetchTimeout, and a fetch must not outlive a
// wedged origin forever. A variable so a test can shorten it.
var originBackstop = 30 * time.Second

// fetchDiscard performs one origin fetch under a per-attempt deadline,
// consuming and validating the full body without buffering it: bodies are
// deterministic, so the proxy regenerates them for clients. A non-200
// status, a transport error, or a short body (mid-stream truncation) all
// count as a failed attempt and are retried.
func (p *Proxy) fetchDiscard(ctx context.Context, id uint64, size int64) error {
	timeout := originBackstop
	if p.res.FetchTimeout > 0 {
		timeout = p.res.FetchTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout) // an earlier deadline on ctx stays in force
	defer cancel()
	c, err := p.origin.get(ctx, id, size)
	if err != nil {
		return fmt.Errorf("server: origin fetch: %w", err)
	}
	defer c.release()
	if c.head.status != http.StatusOK {
		return fmt.Errorf("server: origin status %d", c.head.status)
	}
	n, err := c.discard()
	if err != nil {
		return fmt.Errorf("server: origin body after %d/%d bytes: %w", n, size, err)
	}
	if n != size {
		return fmt.Errorf("server: origin body truncated: %d/%d bytes", n, size)
	}
	return nil
}
