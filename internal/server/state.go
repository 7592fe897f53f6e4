package server

// Drain-time state handoff: when a node leaves the cluster deliberately
// (SIGTERM drain), its learned state — bandit posteriors, cache books, the
// controller's epoch position — does not have to die with it. The draining
// node pushes its checkpoint frame (the same DRWNCKPT bytes the durability
// layer snapshots to disk) to its ring successor over POST /state, and the
// successor merges what it can use. The successor is the right inheritor by
// construction: consistent hashing hands a departed node's keyspace to its
// ring successors, so the inheritor is exactly the node about to see the
// donor's traffic.
//
// The merge is validate-then-commit: the frame's CRC and the acceptor's own
// validation run before anything mutates, so a corrupt or adversarial frame
// is answered 400 and the inheritor's state is untouched (the property test
// in state_test.go holds this line). The proxy itself stays agnostic about
// frame contents — the binary wires Provide/Accept to the checkpoint codec,
// keeping the server layer free of controller imports.

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

// StateHandoff wires the drain-time handoff endpoints to the binary's
// checkpoint codec.
type StateHandoff struct {
	// Provide returns the node's current checkpoint frame (DRWNCKPT bytes).
	Provide func() ([]byte, error)
	// Accept validates and merges an inherited frame. It must be
	// validate-then-commit: an error return promises local state was not
	// mutated.
	Accept func(data []byte) error
}

// EnableStateHandoff arms /state. Call once at startup, before serving.
func (p *Proxy) EnableStateHandoff(h StateHandoff) {
	p.handoff = h
}

// ServeState answers the handoff endpoint: GET streams this node's current
// checkpoint frame, POST merges a donor's frame (validate-then-commit; a
// rejected frame is a 400 and mutates nothing).
func (p *Proxy) ServeState(w http.ResponseWriter, r *http.Request) {
	h := p.handoff
	if h.Provide == nil || h.Accept == nil {
		http.Error(w, "state: handoff not enabled", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, err := h.Provide()
		if err != nil {
			http.Error(w, "state: "+err.Error(), http.StatusInternalServerError)
			return
		}
		setContentType(w.Header())
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	case http.MethodPost:
		data, err := io.ReadAll(io.LimitReader(r.Body, maxStateBytes))
		if err != nil {
			http.Error(w, "state: reading frame: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := h.Accept(data); err != nil {
			p.stats.add(0, func(s *ProxyStats) { s.StateRejects++ })
			http.Error(w, "state: "+err.Error(), http.StatusBadRequest)
			return
		}
		p.stats.add(0, func(s *ProxyStats) { s.StateMerges++ })
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "state: GET or POST only", http.StatusMethodNotAllowed)
	}
}

// PushStateToSuccessor sends this node's checkpoint frame to its ring
// successor — the node that inherits the bulk of its keyspace — as the last
// act of a drain. Returns the successor's index on success. A node without a
// cluster, without handoff wiring, or whose push is refused reports an
// error; drains treat that as best-effort (the successor simply starts
// cold, exactly as before handoff existed).
func (p *Proxy) PushStateToSuccessor(ctx context.Context, client *http.Client) (int, error) {
	ps := p.peers
	if ps == nil {
		return -1, fmt.Errorf("state: no peer cluster configured")
	}
	h := p.handoff
	if h.Provide == nil {
		return -1, fmt.Errorf("state: handoff not enabled")
	}
	succ := ps.ring.SuccessorOf(ps.self)
	if succ < 0 {
		return -1, fmt.Errorf("state: no distinct ring successor")
	}
	data, err := h.Provide()
	if err != nil {
		return succ, fmt.Errorf("state: building frame: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ps.nodes[succ]+"/state", bytes.NewReader(data))
	if err != nil {
		return succ, err
	}
	setContentType(hreq.Header)
	if client == nil {
		// Not the probe client: a state frame is far larger than a probe and
		// deserves the context's deadline, not the 150 ms probe timeout.
		client = &http.Client{}
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return succ, fmt.Errorf("state: pushing to %s: %w", ps.nodes[succ], err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return succ, fmt.Errorf("state: successor %s answered %d: %s", ps.nodes[succ], resp.StatusCode, bytes.TrimSpace(body))
	}
	_, _ = io.CopyN(io.Discard, resp.Body, 1<<10) // best-effort drain so the connection can be reused
	p.stats.add(0, func(s *ProxyStats) { s.StatePushes++ })
	return succ, nil
}
