package server

// Peer-to-peer cache fill: the cluster layer that lets a miss cost a ~1 ms
// hop to a ring sibling instead of the ~10-100 ms origin round trip. Every
// node in a cluster shares the same ordered node list, so each builds an
// identical consistent-hash ring (lb.Ring) and agrees on which siblings are
// an object's primary and replica successors. On a DC/origin-bound miss the
// proxy probes up to peerFanout of the object's designated holders — its
// first n ring successors, n being the replica count the front tier routed it
// with (ReplicasHeader) — and on a 200 commits the request through
// the decider exactly like an origin fetch, so the peer fill is journaled as
// an admit and the object becomes locally resident for the next request.
//
// Safety mirrors the origin path: each sibling is gated by its own rolling
// circuit breaker (a sick or drained peer stops being probed within its
// breaker window), each probe carries a short deadline, and the
// X-Darwin-Peer-Hop header is a loop guard — a node answering a probe
// serves from memory or answers 404; it never forwards the probe onward and
// never touches the origin on its behalf, so a probe costs at most one hop
// even in a routing cycle.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"darwin/internal/breaker"
	"darwin/internal/cache"
	"darwin/internal/gossip"
	"darwin/internal/lb"
	"darwin/internal/trace"
)

// PeerHopHeader marks a request as a peer probe. Its presence is the loop
// guard: the receiving node answers from its own cache or 404s, and never
// initiates further peer or origin fetches for it.
const PeerHopHeader = "X-Darwin-Peer-Hop"

// ReplicasHeader carries the front tier's replica count for the object a
// relayed request names, when it is above 1: the one source of the node's
// designated-holder set for peer fill.
const ReplicasHeader = "X-Darwin-Replicas"

// replicaDigits renders ReplicasHeader's values: a count is one digit, which
// holds while lb.MaxReplicas stays below 10.
const replicaDigits = "0123456789"

// PeerHeader marks a client response whose miss was filled from a ring
// sibling instead of the origin.
const PeerHeader = "X-Darwin-Peer"

// peerFillValue is PeerHeader's pre-serialized value (see body.go for the
// idiom).
var peerFillValue = []string{"fill"}

// PeerConfig wires a proxy into a cluster of siblings.
type PeerConfig struct {
	// Self is this node's own entry in Nodes (probes never target it).
	Self string
	// Nodes lists every cluster node's base URL in the same order on every
	// node — the shared ring coordinates. An entry may appear once.
	Nodes []string
	// FetchTimeout bounds each probe (default 150 ms: a peer hop is only
	// worth taking when it is much cheaper than the origin).
	FetchTimeout time.Duration
}

// defaultPeerBreaker is the breaker configuration for every sibling (and
// every front-tier backend): trip on a 50% failure rate over a 2 s window and
// retry a probe after 1 s — fast enough that a SIGTERM-drained sibling stops
// costing probe timeouts within a couple of windows.
func defaultPeerBreaker(clock func() time.Time) breaker.Config {
	return breaker.Config{
		Window:           2 * time.Second,
		Buckets:          8,
		FailureThreshold: 0.5,
		MinRequests:      4,
		OpenFor:          time.Second,
		HalfOpenProbes:   2,
		Clock:            clock,
	}
}

// repeated returns the first entry of urls that appears twice. A cluster's
// node list is outside input (-peers, -backends): a repeated node would be
// probed as its own sibling, or take a double share of the ring.
func repeated(urls []string) (string, bool) {
	for i, u := range urls {
		if slices.Contains(urls[:i], u) {
			return u, true
		}
	}
	return "", false
}

// peerFanout is the maximum siblings probed per miss (fewer in a cluster of
// fewer siblings).
const peerFanout = 2

// peerSet is the proxy's view of its cluster: the shared ring, sibling
// breakers and probe clients, and the gossip membership view. The struct is
// immutable after SetPeers; memb is internally synchronized.
type peerSet struct {
	ring    *lb.Ring
	self    int
	nodes   []string
	fanout  int
	width   int // successors to walk: enough to cover any replica set
	timeout time.Duration
	brks    []*breaker.Breaker
	ups     []*upstream // probe clients, by node; wants GossipHeader back

	// memb is the gossip membership view: probes piggyback digests on it,
	// and fetchPeer skips siblings it grades Dead.
	memb *gossip.Membership
}

// SetPeers wires the proxy into a peer cluster. Call once before serving
// traffic (darwin-proxy's -peers flag does). The sibling breakers and the
// gossip failure detector run on the pipeline's clock.
func (p *Proxy) SetPeers(cfg PeerConfig) error {
	if len(cfg.Nodes) < 2 {
		return fmt.Errorf("server: peer cluster needs >= 2 nodes, got %d", len(cfg.Nodes))
	}
	if n, ok := repeated(cfg.Nodes); ok {
		return fmt.Errorf("server: peer node %q listed twice in Nodes", n)
	}
	self := slices.Index(cfg.Nodes, cfg.Self)
	if self < 0 {
		return fmt.Errorf("server: peer Self %q not in Nodes", cfg.Self)
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 150 * time.Millisecond
	}
	ring, err := lb.NewRing(lb.Config{Servers: len(cfg.Nodes)})
	if err != nil {
		return err
	}
	// The walk must cover the widest possible replica set (plus self, which
	// the walk may pass through), not just the probe fanout: designated
	// holders are the first replicas(r) successors.
	width := len(cfg.Nodes)
	if width > lb.MaxReplicas {
		width = lb.MaxReplicas
	}
	brks := make([]*breaker.Breaker, len(cfg.Nodes))
	ups := make([]*upstream, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		brks[i] = breaker.New(defaultPeerBreaker(p.ov.Clock))
		ups[i] = newUpstream(n, GossipHeader)
		if err := ups[i].err; err != nil {
			return err
		}
	}
	memb, err := gossip.New(gossip.Config{Nodes: len(cfg.Nodes), Self: self, Clock: p.ov.Clock})
	if err != nil {
		return err
	}
	p.peers = &peerSet{
		ring:    ring,
		self:    self,
		nodes:   cfg.Nodes,
		fanout:  min(peerFanout, len(cfg.Nodes)-1),
		width:   width,
		timeout: cfg.FetchTimeout,
		brks:    brks,
		ups:     ups,
		memb:    memb,
	}
	return nil
}

// replicas returns the replica count the front tier relayed r with. The
// header is outside input: only a single digit 1…lb.MaxReplicas on a single
// header line is accepted; anything else, or no header, means 1.
func replicas(r *http.Request) int {
	v := r.Header[ReplicasHeader]
	if len(v) != 1 || len(v[0]) != 1 {
		return 1
	}
	if n := int(v[0][0]) - '0'; n >= 1 && n <= lb.MaxReplicas {
		return n
	}
	return 1
}

// isPeerProbe reports whether r is a sibling's probe (loop-guard header set).
func isPeerProbe(r *http.Request) bool {
	return len(r.Header[PeerHopHeader]) > 0
}

// servePeerProbe answers a sibling's probe: a residency hit commits through
// the decider (the served request enters this node's books and traffic mix,
// exactly like client traffic) and streams from memory; anything else is an
// immediate 404 — no origin fetch, no further peer hops. A probe costs a
// residency check plus the local serve-hit path, which TestServeHitZeroAllocs
// pins at zero allocations. Probes also gossip:
// the sibling's piggybacked digest merges in, and the answer — hit or 404 —
// carries this node's fresh digest back.
func (p *Proxy) servePeerProbe(w http.ResponseWriter, r *http.Request, req trace.Request) {
	if v := r.Header[GossipHeader]; len(v) > 0 {
		mergeDigest(p.peers.memb, v[0])
	}
	w.Header()[GossipHeader] = []string{p.peers.gossipValue()}
	if res := p.decider.Lookup(req.ID); res == cache.HOCHit || res == cache.DCHit {
		p.stats.add(func(s *ProxyStats) { s.PeerServed++ })
		p.commit(w, req, res)
		return
	}
	w.WriteHeader(http.StatusNotFound)
}

// fetchPeer tries to fill a miss from the object's designated holders — its
// first holders ring successors, where holders is the replica count the front
// tier routed the request with (replicas): the exact nodes front-tier routing
// and replication place it on. A cold object (count 1) costs at most one
// probe to its primary; a hot replicated object may probe up to peerFanout of
// its holders. Siblings the gossip layer grades Dead are skipped outright (no
// point spending a probe timeout on a corpse), and each probe still respects
// the sibling's breaker. Returns false when no holder had the object — the
// caller falls through to the origin fetch.
func (p *Proxy) fetchPeer(ctx context.Context, id uint64, size int64, holders int) bool {
	ps := p.peers
	var dst [lb.MaxReplicas]int
	k := ps.ring.Successors(id, dst[:ps.width])
	holders = min(holders, k)
	tried := 0
	for i := 0; i < holders && tried < ps.fanout; i++ {
		node := dst[i]
		if node == ps.self {
			continue
		}
		if ps.memb.Dead(node) {
			p.stats.add(func(s *ProxyStats) { s.PeerSkipsDead++ })
			continue
		}
		tried++
		brk := ps.brks[node]
		if !brk.Allow() {
			p.stats.add(func(s *ProxyStats) { s.PeerRejects++ })
			continue
		}
		p.stats.add(func(s *ProxyStats) { s.PeerProbes++ })
		hit, healthy := ps.probe(ctx, node, id, size)
		brk.Record(healthy)
		if !healthy {
			p.stats.add(func(s *ProxyStats) { s.PeerErrors++ })
		}
		if hit {
			p.stats.add(func(s *ProxyStats) { s.PeerFills++ })
			return true
		}
	}
	return false
}

// probe asks one sibling for an object. hit reports residency; healthy
// feeds the sibling's breaker — a 404 is a healthy answer (the sibling is
// up, the object just isn't there), while transport errors, non-200/404
// statuses, and truncated bodies are failures. One exception: a probe that
// died because the *client's* request context was cancelled says nothing
// about the sibling — it is classified healthy-no-hit, so a burst of client
// disconnects can never open a sibling's breaker. Probes carry the gossip
// digest both ways.
func (ps *peerSet) probe(ctx context.Context, node int, id uint64, size int64) (hit, healthy bool) {
	ctx, cancel := context.WithTimeout(ctx, ps.timeout)
	defer cancel()
	c, err := ps.ups[node].get(ctx, id, size, PeerHopHeader, "1", GossipHeader, ps.gossipValue())
	if err != nil {
		return false, errors.Is(err, context.Canceled)
	}
	defer c.release()
	if v, ok := c.header(0); ok {
		mergeDigest(ps.memb, string(v))
	}
	switch c.head.status {
	case http.StatusOK:
		n, err := c.discard()
		whole := err == nil && n == size
		return whole, whole
	case http.StatusNotFound:
		return false, true
	default:
		return false, false
	}
}
