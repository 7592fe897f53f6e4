package server

// Front is the cluster's content-aware front tier — the live counterpart of
// the offline lb.Split: an HTTP balancer that routes /obj/ requests over N
// darwin-proxy backends through a consistent-hash ring with bounded loads
// (§2.1's DNS-TTL balancer, re-evaluated every RebalanceEvery requests).
// Three feedback loops close over the ring each window:
//
//   - health: one source, the gossip.Membership view. A prober exchanges
//     digests with each backend's /gossip; a backend that does not serve it
//     (404/405) is polled on /readyz instead and its 200 is fed into the
//     same detector as a heartbeat the front numbers itself — a one-member
//     digest. Either endpoint's poll has one of three outcomes, applied in
//     one place (ProbeOnce): answered OK (proof of life, verdict cleared),
//     declined (an explicit non-200: a drain or a failing gate said "stop" —
//     weight 0 at the next window boundary), or silent (the phi-accrual
//     detector grades the gap: alive 1, suspect ½, dead 0). Two rules cover
//     the detector's blind spots: a Front that has never probed keeps every
//     weight at 1, and a backend that has never been heard — no heartbeat
//     history for phi to accrue on — is declined by its first silent probe
//     until its first OK. A zero weight's share spills to ring successors
//     under bounded loads.
//   - replication: an lb.Replicator observes per-object request share and
//     widens hot objects over ring successors, so a viral object's traffic
//     spreads instead of saturating its primary. The relay tells the backend
//     the object's replica count (ReplicasHeader), so the successors it
//     lands on are exactly the siblings the backend's peer-fill layer
//     probes, and the copies are warm.
//   - breakers: each backend has a rolling circuit breaker fed by relay
//     outcomes; transport failures fail over to the next distinct ring
//     candidate within the same request.
//
// The routing step (pick) is serialized under one mutex — the ring's window
// state is deliberately single-writer — and is allocation-free, a darwinlint
// hotpath root. Relaying goes through the backend's upstream client
// (upstream.go): the handler's own goroutine writes the request, parses the
// head and streams the body through a pooled copy buffer.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/breaker"
	"darwin/internal/gossip"
	"darwin/internal/lb"
)

// FrontConfig parameterises the front tier.
type FrontConfig struct {
	// Backends are the darwin-proxy base URLs, in the cluster's shared node
	// order (the same order backends pass to their -peers flag).
	Backends []string
	// RebalanceEvery is the routing window length in requests (default
	// 10_000): weights, budgets, and replication factors refresh at every
	// window boundary. The ring's other tuning and the replicator's are lb's
	// defaults.
	RebalanceEvery int
	// Breaker configures the per-backend circuit breaker; zero means
	// DefaultPeerBreaker.
	Breaker breaker.Config
	// ProbeEvery is the health poll period (default 250 ms).
	ProbeEvery time.Duration
	// ProbeTimeout bounds each health poll (default ProbeEvery).
	ProbeTimeout time.Duration
	// Client issues the health polls (/gossip, /readyz) and nothing else —
	// requests are relayed through each backend's upstream client; nil
	// builds a default.
	Client *http.Client
	// Gossip tunes the failure detector (thresholds, dwell, clock). Nodes
	// and Self (-1: the front is an observer) are overwritten; a nil Clock
	// means time.Now, and HeartbeatEvery defaults to ProbeEvery.
	Gossip gossip.Config
}

// WithDefaults returns c with every unset (<= 0) tuning field replaced by
// its documented default. ProbeTimeout and Gossip.HeartbeatEvery stay unset:
// they follow ProbeEvery, in NewFront. NewFront applies it and darwin-front
// seeds its flags from it, so each default is spelled once — here, or in lb
// for the ring's.
func (c FrontConfig) WithDefaults() FrontConfig {
	c.RebalanceEvery = lb.Config{RebalanceEvery: c.RebalanceEvery}.WithDefaults().RebalanceEvery
	if c.Breaker.Window <= 0 {
		c.Breaker = DefaultPeerBreaker()
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 250 * time.Millisecond
	}
	return c
}

// frontAttempts bounds failover: how many distinct ring candidates one
// request may try (fewer in a smaller cluster).
const frontAttempts = 3

// FrontStats is the front tier's counters: the striped storage, the snapshot
// Stats returns, and (by field name) the front's /metrics lines.
type FrontStats struct {
	// Requests counts routed requests; Relayed counts responses streamed
	// back (Requests - Relayed - NoBackend requests are in flight).
	Requests, Relayed int64
	// Failovers counts relay attempts beyond the first; BreakerRejects
	// counts candidates skipped because their breaker was open.
	Failovers, BreakerRejects int64
	// NoBackend counts requests answered 502 after every candidate failed.
	NoBackend int64
	// Replicated counts requests routed with a replication factor > 1.
	Replicated int64
}

// Front routes client requests over the backend cluster.
type Front struct {
	cfg   FrontConfig
	nodes []string

	// mu serializes the routing step (pick): the ring's window state and the
	// replicator's observation window advance together under it. The ring
	// pointer itself is immutable after NewFront, and Successors reads only
	// construction-time state, so the failover loop walks it lock-free.
	mu   sync.Mutex
	ring *lb.Ring
	rep  *lb.Replicator

	// memb is the graded membership view, the one health source: the prober
	// feeds it, the readiness hook reads its weights. declined marks a
	// backend whose last answer was an explicit non-200, or that has never
	// answered at all (see the package comment).
	memb     *gossip.Membership
	declined []atomic.Bool

	// probeTimeouts / probeRefused classify failed probes per backend: a
	// deadline-style failure (the backend exists but is slow or wedged)
	// versus an immediate refusal (nothing is listening). The distinction is
	// an operator's first diagnostic — wedged wants a restart, refused wants
	// a deploy check.
	probeTimeouts []atomic.Int64
	probeRefused  []atomic.Int64

	brks []*breaker.Breaker
	// ups relays to each backend; client only polls their health.
	ups    []*upstream
	client *http.Client
	stats  *counters[FrontStats]
}

// NewFront builds a front tier over the given backends. Call Start to run
// the health prober, or drive ProbeOnce manually (tests do).
func NewFront(cfg FrontConfig) (*Front, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("server: front tier needs at least one backend")
	}
	cfg = cfg.WithDefaults()
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeEvery
	}
	gcfg := cfg.Gossip
	gcfg.Nodes = len(cfg.Backends)
	gcfg.Self = -1 // the front observes; it emits no heartbeats
	if gcfg.Clock == nil {
		gcfg.Clock = time.Now
	}
	if gcfg.HeartbeatEvery <= 0 {
		gcfg.HeartbeatEvery = cfg.ProbeEvery
	}
	memb, err := gossip.New(gcfg)
	if err != nil {
		return nil, err
	}
	f := &Front{
		cfg:           cfg,
		nodes:         cfg.Backends,
		rep:           lb.NewReplicator(lb.ReplicationConfig{}),
		memb:          memb,
		declined:      make([]atomic.Bool, len(cfg.Backends)),
		probeTimeouts: make([]atomic.Int64, len(cfg.Backends)),
		probeRefused:  make([]atomic.Int64, len(cfg.Backends)),
		brks:          make([]*breaker.Breaker, len(cfg.Backends)),
		ups:           make([]*upstream, len(cfg.Backends)),
		stats:         newCounters[FrontStats](),
	}
	for i, b := range cfg.Backends {
		f.brks[i] = breaker.New(cfg.Breaker)
		f.ups[i] = newUpstream(b, relayHeaders...)
		if err := f.ups[i].err; err != nil {
			return nil, err
		}
	}
	ring, err := lb.NewRing(lb.Config{
		Servers:        len(cfg.Backends),
		RebalanceEvery: cfg.RebalanceEvery,
		Readiness:      f.readiness,
	})
	if err != nil {
		return nil, err
	}
	f.ring = ring
	f.client = cfg.Client
	if f.client == nil {
		f.client = &http.Client{Transport: &http.Transport{}}
	}
	return f, nil
}

// readiness is the ring's per-window weight hook. An open breaker always
// sheds everything — live relay failures outrank any probe. So does a
// decline (an answer is a verdict — a draining backend said "stop"). Past
// that the weight is the membership view's: alive 1 (also every backend of a
// Front that has never probed), suspect SuspectWeight, dead 0 — so one slow
// probe costs a slice of ring weight, never the whole keyspace.
func (f *Front) readiness(window, server int) float64 {
	if f.brks[server].State() == breaker.Open || f.declined[server].Load() {
		return 0
	}
	return f.memb.Weight(server)
}

// Start runs the health prober until ctx is cancelled.
func (f *Front) Start(ctx context.Context) {
	go func() {
		t := time.NewTicker(f.cfg.ProbeEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				f.ProbeOnce(ctx)
			}
		}
	}()
}

// ProbeOnce polls every backend once and applies the outcome to the one
// health state. Exported so tests (and the drain experiment) can drive
// probing deterministically instead of racing a ticker.
func (f *Front) ProbeOnce(ctx context.Context) {
	for i, n := range f.nodes {
		v := f.probe(ctx, i, n)
		// Silence says nothing new about a backend once heard: the detector
		// grades the gap, and an earlier decline stays in force (a drained
		// node that then exits must not climb back to suspect weight just
		// because refusals replaced 503s). A backend never heard has no gap
		// to grade, so its silence is read as a decline.
		if v != probeSilent || !f.memb.Heard(i) {
			f.declined[i].Store(v != probeOK)
		}
	}
}

// probeVerdict is one health poll's outcome, whichever endpoint answered.
type probeVerdict int

const (
	// probeOK: a clean 200 — proof of life, fed to the detector.
	probeOK probeVerdict = iota
	// probeDeclined: an explicit non-200 answer (a drain or failing-gate
	// 503) — an answer is a verdict, and sheds the backend immediately.
	probeDeclined
	// probeSilent: no (usable) answer at all — the graded detector decides.
	probeSilent
)

// probe polls one backend's health. The exchange is /gossip: POST the
// front's observer digest (relaying everything it has heard — the
// indirect-heartbeat path that keeps partitioned-but-alive nodes alive in
// everyone's view) and merge the backend's digest from the answer. A backend
// that answers 404/405 does not serve /gossip; its /readyz is polled
// instead, and a 200 there is the same proof of life — a heartbeat for that
// one backend, numbered by the front.
func (f *Front) probe(ctx context.Context, backend int, node string) probeVerdict {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.ProbeTimeout)
	defer cancel()
	out := gossip.AppendDigest(nil, -1, f.memb.Digest(nil))
	status, body := f.poll(ctx, backend, http.MethodPost, node+"/gossip", out)
	switch status {
	case http.StatusOK:
		sender, entries, err := gossip.DecodeDigest(body, nil)
		if err != nil {
			// Answered garbage: no proof of life, but not a refusal either —
			// let the detector's phi make the call.
			return probeSilent
		}
		f.memb.Merge(sender, entries)
		return probeOK
	case http.StatusNotFound, http.StatusMethodNotAllowed:
		status, _ = f.poll(ctx, backend, http.MethodGet, node+"/readyz", nil)
		if status == http.StatusOK {
			f.memb.Heartbeat(backend, f.memb.Seq(backend)+1)
			return probeOK
		}
	}
	if status == 0 {
		return probeSilent
	}
	return probeDeclined
}

// poll issues one health request and returns the answer's status and
// (bounded) body. Status 0 means no answer, sorted into the backend's
// failure counters: deadline-style failures mean the backend exists but is
// slow or wedged; anything else (connection refused, reset, DNS) is counted
// as a refusal.
func (f *Front) poll(ctx context.Context, backend int, method, url string, digest []byte) (int, []byte) {
	hreq, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(digest))
	if err != nil {
		return 0, nil
	}
	resp, err := f.client.Do(hreq)
	if err == nil {
		defer resp.Body.Close()
		var body []byte
		if body, err = io.ReadAll(io.LimitReader(resp.Body, maxGossipBytes)); err == nil {
			return resp.StatusCode, body
		}
	}
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		f.probeTimeouts[backend].Add(1)
	} else {
		f.probeRefused[backend].Add(1)
	}
	return 0, nil
}

// pick routes one request: the ring's bounded-loads choice over the object's
// current replica set, with the replicator observing every request and
// rebalancing at window boundaries. Serialized under mu; allocation-free
// outside window boundaries (a darwinlint hotpath root).
func (f *Front) pick(id uint64) (server int, replicas int) {
	f.mu.Lock()
	replicas = f.rep.Factor(id)
	w := f.ring.Window()
	server = f.ring.RouteReplicated(id, replicas)
	if f.ring.Window() != w {
		// Window boundary crossed: close the replicator's observation window
		// too, so next window's factors reflect last window's shares.
		f.rep.Rebalance()
	}
	f.rep.Observe(id)
	f.mu.Unlock()
	return server, replicas
}

// Window returns the ring's current rebalance window index.
func (f *Front) Window() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Window()
}

// Weights returns the ring's current effective backend weights (after
// readiness shedding) — the front tier's /metrics surface for "who is
// taking traffic".
func (f *Front) Weights() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Weights()
}

// Stats returns a coherent snapshot of the front tier's counters.
func (f *Front) Stats() FrontStats { return f.stats.snapshot() }

// ReplicationStats returns the replicator's last completed window row.
func (f *Front) ReplicationStats() lb.ReplicationStats { return f.rep.Stats() }

// Membership exposes the front's graded view of the cluster.
func (f *Front) Membership() *gossip.Membership { return f.memb }

// ProbeStats returns backend's cumulative probe-failure classification:
// timeouts (the backend exists but is slow or wedged) versus refusals
// (nothing answered at all). The front tier's /metrics surfaces both
// per-backend.
func (f *Front) ProbeStats(backend int) (timeouts, refused int64) {
	if backend < 0 || backend >= len(f.nodes) {
		return 0, 0
	}
	return f.probeTimeouts[backend].Load(), f.probeRefused[backend].Load()
}

// MembershipStatus names backend's current standing for metrics: "declined"
// when its last answer was an explicit non-200 (or it has never answered),
// otherwise the graded status ("alive", "suspect", "dead").
func (f *Front) MembershipStatus(backend int) string {
	if backend < 0 || backend >= len(f.nodes) {
		return "invalid"
	}
	if f.declined[backend].Load() {
		return "declined"
	}
	return f.memb.Status(backend).String()
}

// ServeMetrics is the front tier's /metrics exposition: the FrontStats
// counters, the routing window, each backend's weight, standing and probe
// failures, and the replicator's last window (rep_*).
func (f *Front) ServeMetrics(w http.ResponseWriter, r *http.Request) {
	WriteMetrics(w, "", f.Stats())
	_, _ = fmt.Fprintf(w, "window %d\n", f.Window()) // as WriteMetrics, errors are dropped
	for i, wt := range f.Weights() {
		_, _ = fmt.Fprintf(w, "backend_weight{node=%d} %g\n", i, wt)
	}
	for i := range f.nodes {
		timeouts, refused := f.ProbeStats(i)
		_, _ = fmt.Fprintf(w, "backend_status{node=%d} %s\nprobe_timeout{node=%d} %d\nprobe_refused{node=%d} %d\ngossip_phi{node=%d} %.3f\n",
			i, f.MembershipStatus(i), i, timeouts, i, refused, i, f.memb.Phi(i))
	}
	WriteMetrics(w, "rep_", f.ReplicationStats())
}

// ServeHTTP routes one client request to a backend and streams the response
// back. The ring's pick goes first; on transport failure the request fails
// over to the next distinct ring candidate (at most frontAttempts), recording
// each outcome in the backend's breaker. An HTTP response of any status is
// relayed — a 502 or shed 503 from a live backend is an answer, not a
// routing failure.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, size, err := parseObjectURL(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	primary, replicas := f.pick(id)
	if replicas > 1 {
		f.stats.add(id, func(s *FrontStats) { s.Requests++; s.Replicated++ })
	} else {
		f.stats.add(id, func(s *FrontStats) { s.Requests++ })
	}

	// Failover order: the routed backend first, then the object's remaining
	// ring successors (distinct by construction).
	var cand [lb.MaxReplicas]int
	attempts := min(frontAttempts, len(f.nodes))
	k := f.ring.Successors(id, cand[:min(attempts+1, len(f.nodes), lb.MaxReplicas)])
	tried := 0
	for i := -1; i < k && tried < attempts; i++ {
		var node int
		if i < 0 {
			node = primary
		} else {
			node = cand[i]
			if node == primary {
				continue
			}
		}
		if !f.brks[node].Allow() {
			f.stats.add(id, func(s *FrontStats) { s.BreakerRejects++ })
			continue
		}
		if tried > 0 {
			f.stats.add(id, func(s *FrontStats) { s.Failovers++ })
		}
		tried++
		if f.relay(w, r, node, id, size, replicas) {
			f.stats.add(id, func(s *FrontStats) { s.Relayed++ })
			return
		}
	}
	f.stats.add(id, func(s *FrontStats) { s.NoBackend++ })
	http.Error(w, "front: no backend available", http.StatusBadGateway)
}

// relay forwards the request to one backend and, if the backend answers
// HTTP at all, streams the response to the client. Returns false only on
// transport-level failure (connection refused/reset, an unparsable head,
// deadline), in which case nothing has been written and the caller may fail
// over.
func (f *Front) relay(w http.ResponseWriter, r *http.Request, node int, id uint64, size int64, replicas int) bool {
	// Propagate the client's deadline advertisement so backend deadline
	// shedding still works behind the front tier, and a replicated object's
	// replica count so the backend's peer fill probes the holders this
	// routing placed it on.
	var buf [4]string
	hdr := buf[:0]
	if dl := r.Header[DeadlineHeader]; len(dl) > 0 {
		hdr = append(hdr, DeadlineHeader, dl[0])
	}
	if replicas > 1 {
		hdr = append(hdr, ReplicasHeader, replicaDigits[replicas:replicas+1])
	}
	c, err := f.ups[node].get(r.Context(), id, size, hdr...)
	if err != nil {
		f.brks[node].Record(false)
		return false
	}
	defer c.release()
	// Any HTTP answer means the backend is alive: a 502 is the shared
	// origin's trouble and a shed 503 is deliberate — neither should charge
	// this backend's breaker. Only a 500 (the backend itself broke) does.
	f.brks[node].Record(c.head.status != http.StatusInternalServerError)

	h := w.Header()
	for i, key := range relayHeaders {
		if v, ok := c.header(i); ok {
			h[key] = relayValue(key, v, c.head.length)
		}
	}
	w.WriteHeader(c.head.status)
	c.writeTo(w)
	return true
}

// relayHeaders are the backend response headers the front tier propagates to
// clients (pre-canonicalized keys for direct map indexing).
var relayHeaders = []string{
	"Content-Type",
	"Content-Length",
	"X-Cache",
	PeerHeader,
	ShedHeader,
	"Warning",
	"Retry-After",
}

// relayValue returns a backend header value as a header-map entry. The values
// every healthy answer carries are interned onto the pre-serialized slices the
// backends themselves send from (body.go), so relaying a hit allocates no
// header strings; anything else (an error page's type, a shed's reason) is
// copied out of the connection's buffer.
func relayValue(key string, v []byte, length int64) []string {
	switch key {
	case "Content-Type":
		if string(v) == contentTypeOctet[0] {
			return contentTypeOctet
		}
	case "Content-Length":
		if cl := contentLengthValue(length); string(v) == cl[0] {
			return cl
		}
	case "X-Cache":
		for _, known := range [...][]string{xcacheHOC, xcacheDC, xcacheMiss, xcacheStale} {
			if string(v) == known[0] {
				return known
			}
		}
	case PeerHeader:
		if string(v) == peerFillValue[0] {
			return peerFillValue
		}
	}
	return []string{string(v)}
}
