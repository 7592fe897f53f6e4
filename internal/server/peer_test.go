package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"darwin/internal/lb"
)

// peerPair builds a 2-node cluster: two resilient sharded proxies over one
// origin, wired as each other's ring sibling.
func peerPair(t *testing.T, originURL string) (a, b *Proxy, aSrv, bSrv *httptest.Server) {
	t.Helper()
	mk := func() *Proxy {
		dec := staticDecider(t, 2)
		return NewOverloadProxy(dec, originURL, 0, fastResilience(), Overload{})
	}
	a, b = mk(), mk()
	aSrv = httptest.NewServer(a)
	bSrv = httptest.NewServer(b)
	nodes := []string{aSrv.URL, bSrv.URL}
	if err := a.SetPeers(PeerConfig{Self: aSrv.URL, Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeers(PeerConfig{Self: bSrv.URL, Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	return a, b, aSrv, bSrv
}

// peerObjectID returns the first object id >= from whose ring primary is
// node owner on an n-node cluster. Replica-aware peer fill only probes an
// object's designated holders, so tests that want node A to probe node B
// must pick ids the shared ring places on B. The ring here mirrors the one
// SetPeers builds (same server count, default virtual nodes).
func peerObjectID(t *testing.T, n, owner int, from uint64) uint64 {
	t.Helper()
	ring, err := lb.NewRing(lb.Config{Servers: n})
	if err != nil {
		t.Fatal(err)
	}
	var dst [1]int
	for id := from; id < from+1_000_000; id++ {
		if ring.Successors(id, dst[:]) == 1 && dst[0] == owner {
			return id
		}
	}
	t.Fatalf("no object id in [%d,%d) with primary %d", from, from+1_000_000, owner)
	return 0
}

func mustGet(t *testing.T, url string, hdr http.Header) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPeerFillServesFromSibling: a miss on node A for an object resident on
// sibling B is answered via the peer hop — no origin fetch — and the fill is
// committed through A's decider like an admit, so the object is locally
// resident afterwards.
func TestPeerFillServesFromSibling(t *testing.T) {
	origin := &Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	a, b, aSrv, bSrv := peerPair(t, originSrv.URL)
	defer aSrv.Close()
	defer bSrv.Close()

	// An object whose ring primary is B: A's replica-aware fill will probe
	// exactly its designated holder. Warm it on B — the Freq-1 expert admits
	// on the second touch; the third confirms residency.
	id := peerObjectID(t, 2, 1, 1)
	objURL := func(base string) string { return fmt.Sprintf("%s/obj/%d?size=1000", base, id) }
	mustGet(t, objURL(bSrv.URL), nil)
	mustGet(t, objURL(bSrv.URL), nil)
	if resp := mustGet(t, objURL(bSrv.URL), nil); resp.Header.Get("X-Cache") == "miss" {
		t.Fatalf("object %d not resident on B after warm-up", id)
	}
	originReqs, _ := origin.Stats()

	// A has never seen the object: its miss must fill from B, not the origin.
	resp := mustGet(t, objURL(aSrv.URL), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-filled request: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(PeerHeader); got != "fill" {
		t.Fatalf("peer-fill marker = %q, want %q", got, "fill")
	}
	if after, _ := origin.Stats(); after != originReqs {
		t.Fatalf("peer fill hit the origin: %d -> %d requests", originReqs, after)
	}
	st := a.Stats()
	if st.PeerProbes != 1 || st.PeerFills != 1 {
		t.Fatalf("A peer stats: probes=%d fills=%d, want 1/1", st.PeerProbes, st.PeerFills)
	}
	if bst := b.Stats(); bst.PeerServed != 1 {
		t.Fatalf("B served %d probes, want 1", bst.PeerServed)
	}

	// The fill was committed through A's decider (the miss is in its books).
	if m := a.Metrics(); m.Requests != 1 || m.Misses != 1 {
		t.Fatalf("peer fill not committed through the decider: %+v", m)
	}
	// A second touch fills from B again and — like a second origin miss —
	// crosses the Freq-1 expert's admission threshold: journaled as an admit.
	mustGet(t, objURL(aSrv.URL), nil)
	if m := a.Metrics(); m.DCWrites == 0 {
		t.Fatalf("second peer fill did not admit: %+v", m)
	}
	if resp := mustGet(t, objURL(aSrv.URL), nil); resp.Header.Get("X-Cache") == "miss" {
		t.Fatalf("object %d not resident on A after admitted peer fill", id)
	}
	if st := a.Stats(); st.PeerProbes != 2 {
		t.Fatalf("locally-resident re-request probed a peer: probes=%d, want 2", st.PeerProbes)
	}
}

// TestPeerProbeLoopGuard is the satellite requirement: in a 2-node cycle a
// probe terminates after exactly one hop. A misses, probes B; B — which also
// misses — must answer 404 without probing back or touching the origin.
func TestPeerProbeLoopGuard(t *testing.T) {
	origin := &Origin{}
	originSrv := httptest.NewServer(origin)
	a, b, aSrv, bSrv := peerPair(t, originSrv.URL)
	defer aSrv.Close()
	defer bSrv.Close()
	// Kill the origin so a probe loop could not hide behind an origin fill.
	originSrv.Close()

	id := peerObjectID(t, 2, 1, 1) // primary on B, so A probes it
	resp := mustGet(t, fmt.Sprintf("%s/obj/%d?size=100", aSrv.URL, id), nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead origin + cold cluster: status %d, want 502", resp.StatusCode)
	}
	ast, bst := a.Stats(), b.Stats()
	if ast.PeerProbes != 1 {
		t.Fatalf("A sent %d probes, want exactly 1", ast.PeerProbes)
	}
	if bst.PeerProbes != 0 {
		t.Fatalf("loop guard breached: B probed back %d time(s)", bst.PeerProbes)
	}
	if reqs, _ := origin.Stats(); reqs != 0 {
		t.Fatalf("a peer probe reached the origin: %d requests", reqs)
	}

	// A probe sent directly to a node is answered 404 (never forwarded),
	// even though the node's own sibling holds nothing either.
	probe := mustGet(t, fmt.Sprintf("%s/obj/%d?size=100", bSrv.URL, id), http.Header{PeerHopHeader: {"1"}})
	if probe.StatusCode != http.StatusNotFound {
		t.Fatalf("nonresident probe: status %d, want 404", probe.StatusCode)
	}
	if bst := b.Stats(); bst.PeerProbes != 0 {
		t.Fatalf("probe handling triggered outbound probes: %d", bst.PeerProbes)
	}
}

// TestPeerBreakerStopsProbingDeadSibling: once a sibling dies, its breaker
// opens after a few failed probes and later misses skip the probe entirely.
func TestPeerBreakerStopsProbingDeadSibling(t *testing.T) {
	origin := &Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	a, _, aSrv, bSrv := peerPair(t, originSrv.URL)
	defer aSrv.Close()
	bSrv.Close() // sibling dies immediately

	// MinRequests for the default peer breaker is 4: a handful of misses on
	// B-primary objects trips it, after which probes are rejected without
	// network I/O.
	ids := make([]uint64, 10)
	next := uint64(1)
	for i := range ids {
		ids[i] = peerObjectID(t, 2, 1, next)
		next = ids[i] + 1
	}
	for i := 0; i < 12; i++ {
		mustGet(t, fmt.Sprintf("%s/obj/%d?size=50", aSrv.URL, ids[i%10]), nil)
	}
	st := a.Stats()
	if st.PeerErrors < 4 {
		t.Fatalf("dead sibling produced %d probe errors, want >= 4", st.PeerErrors)
	}
	if st.PeerRejects == 0 {
		t.Fatal("sibling breaker never opened: no probe rejects recorded")
	}
}
