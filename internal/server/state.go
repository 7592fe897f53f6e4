package server

// Drain-time state handoff: when a node leaves the cluster deliberately
// (SIGTERM drain), its cache contents do not have to die with it. The
// draining node pushes a checkpoint frame (the DRWNCKPT format the
// durability layer snapshots to disk) to its ring successor over POST
// /state, and the successor merges the donor's resident objects into its
// DC. That is all it takes from the frame: the donor's controller state was
// learned over the donor's engine and traffic, and stays behind.
// The successor is the right inheritor by construction: consistent hashing
// hands a departed node's keyspace to its ring successors, so the inheritor
// is exactly the node about to see the donor's traffic.
//
// The merge is validate-then-commit: the acceptor checks the frame's CRC
// and everything it merges before anything mutates, so a corrupt or
// adversarial frame is answered 400 and the inheritor's state is untouched
// (internal/node's property tests hold this line). It checks nothing it
// does not merge: a frame whose controller state is malformed still hands
// over its cache. The proxy itself stays agnostic about
// frame contents — the binary hands PushStateToSuccessor an encoded frame and
// wires the acceptor to the checkpoint codec, keeping the server layer free
// of controller imports.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
)

// maxStateBytes bounds a /state body read. Checkpoint frames carry cache
// books proportional to resident objects; 256 MiB is far above any plausible
// frame while still bounding a hostile stream.
const maxStateBytes = 256 << 20

// EnableStateHandoff arms POST /state with accept, which validates and merges
// an inherited frame. accept must be validate-then-commit: an error return
// promises local state was not mutated. Call once at startup, before serving.
func (p *Proxy) EnableStateHandoff(accept func(frame []byte) error) {
	p.acceptState = accept
}

// ServeState answers the handoff endpoint: a POST merges a donor's frame
// (validate-then-commit; a rejected frame is a 400 and mutates nothing), and
// any other method is a 405.
func (p *Proxy) ServeState(w http.ResponseWriter, r *http.Request) {
	if p.acceptState == nil {
		http.Error(w, "state: handoff not enabled", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "state: POST only", http.StatusMethodNotAllowed)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxStateBytes))
	if err != nil {
		http.Error(w, "state: reading frame: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := p.acceptState(data); err != nil {
		p.stats.add(func(s *ProxyStats) { s.StateRejects++ })
		http.Error(w, "state: "+err.Error(), http.StatusBadRequest)
		return
	}
	p.stats.add(func(s *ProxyStats) { s.StateMerges++ })
	w.WriteHeader(http.StatusNoContent)
}

// PushStateToSuccessor POSTs frame, this node's encoded state, to its ring
// successor — the node that inherits the bulk of its keyspace — as the last
// act of a drain. Returns the successor's index on success. A node without a
// cluster, or whose push is refused, reports an error; drains treat that as
// best-effort (the successor simply starts cold, exactly as before handoff
// existed).
func (p *Proxy) PushStateToSuccessor(ctx context.Context, frame []byte) (int, error) {
	ps := p.peers
	if ps == nil {
		return -1, fmt.Errorf("state: no peer cluster configured")
	}
	succ := ps.ring.SuccessorOf(ps.self)
	if succ < 0 {
		return -1, fmt.Errorf("state: no distinct ring successor")
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ps.nodes[succ]+"/state", bytes.NewReader(frame))
	if err != nil {
		return succ, err
	}
	setContentType(hreq.Header)
	// Not the probe client: a state frame is far larger than a probe and
	// deserves the context's deadline, not the 150 ms probe timeout.
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return succ, fmt.Errorf("state: pushing to %s: %w", ps.nodes[succ], err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return succ, fmt.Errorf("state: successor %s answered %d: %s", ps.nodes[succ], resp.StatusCode, bytes.TrimSpace(body))
	}
	_, _ = io.CopyN(io.Discard, resp.Body, 1<<10) // best-effort drain so the connection can be reused
	p.stats.add(func(s *ProxyStats) { s.StatePushes++ })
	return succ, nil
}
