package server

// Gossip glue: how the membership layer (internal/gossip) rides the cluster's
// existing HTTP fabric. There is no dedicated gossip transport — digests
// piggyback where bytes already flow:
//
//   - peer probes carry X-Darwin-Gossip both ways: the prober attaches its
//     fresh digest to the request, the probed sibling merges it and attaches
//     its own to the response (even a 404 answer gossips).
//   - /gossip is the explicit exchange endpoint: POST a digest, get the
//     node's digest back. Mount it behind Health.Gated, so it answers 503
//     whenever /readyz would. The front tier polls it and —
//     because its observer digest carries everything it has heard from every
//     backend — acts as a relay hub, so a node unreachable on one cluster
//     edge stays alive in everyone's view as long as the front can reach it
//     (the asymmetric-partition case).
//
// Every emission calls Beat first, so each digest leaving the process is a
// fresh proof of life. Malformed digests are dropped silently on the
// piggyback path (they are advisory) and answered 400 on /gossip (the caller
// asked for an exchange and should learn its frame was garbage).

import (
	"encoding/base64"
	"io"
	"net/http"

	"darwin/internal/gossip"
)

// GossipHeader carries a base64-encoded heartbeat digest piggybacked on peer
// probes, in both the request and the response direction.
const GossipHeader = "X-Darwin-Gossip"

// maxGossipBytes bounds a /gossip request body read — comfortably above the
// largest legal digest (gossip.MaxDigestEntries entries).
const maxGossipBytes = 64 << 10

// Membership exposes the proxy's gossip view of its cluster (nil before
// SetPeers).
func (p *Proxy) Membership() *gossip.Membership {
	if p.peers == nil {
		return nil
	}
	return p.peers.memb
}

// digestBytes encodes this node's current digest, beating first so the
// emission is a proof of life.
func (ps *peerSet) digestBytes() []byte {
	ps.memb.Beat()
	entries := ps.memb.Digest(make([]gossip.Entry, 0, len(ps.nodes)))
	return gossip.AppendDigest(make([]byte, 0, 8+12*len(entries)), ps.self, entries)
}

// gossipValue encodes this node's digest for the piggyback header.
func (ps *peerSet) gossipValue() string {
	return base64.StdEncoding.EncodeToString(ps.digestBytes())
}

// mergeGossip folds a piggybacked digest from h into the membership view.
// Absent or malformed headers are ignored: the piggyback is advisory, and a
// sibling with a corrupt frame still answered HTTP — its liveness is judged
// by the probe outcome, not the trimming.
func (ps *peerSet) mergeGossip(h http.Header) {
	if v := h[GossipHeader]; len(v) > 0 {
		ps.mergeGossipValue(v[0])
	}
}

// mergeGossipValue is mergeGossip for one header value.
func (ps *peerSet) mergeGossipValue(v string) {
	raw, err := base64.StdEncoding.DecodeString(v)
	if err != nil {
		return
	}
	sender, entries, err := gossip.DecodeDigest(raw, nil)
	if err != nil {
		return
	}
	ps.memb.Merge(sender, entries)
}

// ServeGossip is the explicit digest exchange: POST merges the caller's
// digest (400 on a corrupt frame), and every successful answer carries this
// node's fresh digest. GET is a pure read — the front tier's probe uses POST
// so each poll both relays its observer view and collects the node's.
func (p *Proxy) ServeGossip(w http.ResponseWriter, r *http.Request) {
	ps := p.peers
	if ps == nil {
		http.Error(w, "gossip: no cluster membership", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, maxGossipBytes))
		if err != nil {
			http.Error(w, "gossip: reading digest: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > 0 {
			sender, entries, derr := gossip.DecodeDigest(body, nil)
			if derr != nil {
				http.Error(w, derr.Error(), http.StatusBadRequest)
				return
			}
			ps.memb.Merge(sender, entries)
		}
	default:
		http.Error(w, "gossip: GET or POST only", http.StatusMethodNotAllowed)
		return
	}
	p.stats.add(uint64(ps.self), func(s *ProxyStats) { s.GossipExchanges++ })
	w.Header()["Content-Type"] = octetStreamValue
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ps.digestBytes())
}

// octetStreamValue is the pre-allocated Content-Type for binary answers.
var octetStreamValue = []string{"application/octet-stream"}
