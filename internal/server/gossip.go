package server

// Gossip glue: how the membership layer (internal/gossip) rides the cluster's
// existing HTTP fabric. There is no dedicated gossip transport and no gossip
// endpoint — digests travel base64-encoded in X-Darwin-Gossip on requests
// that flow anyway, in both directions:
//
//   - peer probes: the prober attaches its fresh digest to the request, the
//     probed sibling merges it and attaches its own to the response (even a
//     404 answer gossips).
//   - readiness polls: the front tier's GET /readyz carries its observer
//     digest; a clustered node whose health verdict passes merges it and
//     answers 200 with its own (ServeReadyz, mounted behind Health.Gated). A
//     refused poll is the verdict's 503 and merges nothing. Because the
//     front's observer digest carries everything it has heard from every
//     backend, it acts as a relay hub: a node unreachable on one cluster edge
//     stays alive in everyone's view as long as the front can reach it (the
//     asymmetric-partition case).
//
// Every emission calls Beat first, so each digest leaving the process is a
// fresh proof of life. A malformed digest is dropped silently: the
// piggyback is advisory, and the request it rode on is answered as usual.

import (
	"encoding/base64"
	"net/http"

	"darwin/internal/gossip"
)

// GossipHeader carries a base64-encoded heartbeat digest on peer probes and
// readiness polls, in both the request and the response direction.
const GossipHeader = "X-Darwin-Gossip"

// Membership exposes the proxy's gossip view of its cluster (nil before
// SetPeers).
func (p *Proxy) Membership() *gossip.Membership {
	if p.peers == nil {
		return nil
	}
	return p.peers.memb
}

// gossipValue encodes this node's current digest for GossipHeader, beating
// first so the emission is a proof of life.
func (ps *peerSet) gossipValue() string {
	ps.memb.Beat()
	entries := ps.memb.Digest(make([]gossip.Entry, 0, len(ps.nodes)))
	return base64.StdEncoding.EncodeToString(gossip.AppendDigest(make([]byte, 0, 8+12*len(entries)), ps.self, entries))
}

// mergeDigest folds one GossipHeader value into m and reports whether it
// decoded. A malformed value merges nothing: the piggyback is advisory, and
// a sender with a corrupt frame still answered HTTP — its liveness is judged
// by the request's outcome, not the trimming.
func mergeDigest(m *gossip.Membership, v string) bool {
	raw, err := base64.StdEncoding.DecodeString(v)
	if err != nil {
		return false
	}
	sender, entries, err := gossip.DecodeDigest(raw, nil)
	if err != nil {
		return false
	}
	m.Merge(sender, entries)
	return true
}

// ServeReadyz answers a readiness poll that passed the node's verdict: mount
// it behind Health.Gated, so what the verdict refuses is a 503 that merges
// nothing. A poll carrying a digest (the front tier's) is the exchange: the
// digest is merged and the 200 carries this node's fresh one back, counted
// in GossipExchanges. A poll without one, or a node without membership,
// gets a plain 200 that neither beats nor counts.
func (p *Proxy) ServeReadyz(w http.ResponseWriter, r *http.Request) {
	if v, ps := r.Header[GossipHeader], p.peers; len(v) > 0 && ps != nil {
		mergeDigest(ps.memb, v[0])
		w.Header()[GossipHeader] = []string{ps.gossipValue()}
		p.stats.add(func(s *ProxyStats) { s.GossipExchanges++ })
	}
	ready(w, r)
}
