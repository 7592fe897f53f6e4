package server

import (
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"darwin/internal/gossip"
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

// TestRepeatedNodeRejected: a cluster node list is outside input (-peers,
// -backends), and a URL named twice is refused with an error naming it.
// SetPeers would otherwise take one copy as Self and probe the other over
// HTTP as a sibling; NewFront would give the repeated backend a double share
// of the ring.
func TestRepeatedNodeRejected(t *testing.T) {
	const a, b, c = "http://127.0.0.1:18001", "http://127.0.0.1:18002", "http://127.0.0.1:18003"
	p := NewOverloadProxy(staticDecider(t, 1), "http://unused", 0, Resilience{}, Overload{})
	for _, tc := range []struct {
		nodes []string
		dup   string
	}{
		{[]string{a, b, a}, a}, // Self repeated
		{[]string{a, b, b}, b}, // a sibling repeated
		{[]string{c, a, b, c}, c},
	} {
		if err := p.SetPeers(PeerConfig{Self: a, Nodes: tc.nodes}); err == nil || !strings.Contains(err.Error(), tc.dup) {
			t.Errorf("SetPeers(%v) = %v, want an error naming %s", tc.nodes, err, tc.dup)
		}
		if _, err := NewFront(FrontConfig{Backends: tc.nodes}); err == nil || !strings.Contains(err.Error(), tc.dup) {
			t.Errorf("NewFront(%v) = %v, want an error naming %s", tc.nodes, err, tc.dup)
		}
	}
	if p.Membership() != nil {
		t.Fatal("a refused SetPeers left the proxy clustered")
	}
	if err := p.SetPeers(PeerConfig{Self: a, Nodes: []string{a, b, c}}); err != nil {
		t.Fatalf("distinct nodes refused: %v", err)
	}
}

// TestReplicasHeaderParse: X-Darwin-Replicas is outside input, so only a
// single digit 1…lb.MaxReplicas on one header line is a replica count;
// anything else reads as 1.
func TestReplicasHeaderParse(t *testing.T) {
	if lb.MaxReplicas >= len(replicaDigits) {
		t.Fatalf("lb.MaxReplicas %d no longer renders as one digit", lb.MaxReplicas)
	}
	for _, tc := range []struct {
		name string
		vals []string
		want int
	}{
		{"absent", nil, 1},
		{"zero", []string{"0"}, 1},
		{"one", []string{"1"}, 1},
		{"three", []string{"3"}, 3},
		{"max", []string{replicaDigits[lb.MaxReplicas : lb.MaxReplicas+1]}, lb.MaxReplicas},
		{"above max", []string{"9"}, 1},
		{"not a digit", []string{"x"}, 1},
		{"list", []string{"2,3"}, 1},
		{"two lines", []string{"2", "3"}, 1},
	} {
		r := httptest.NewRequest(http.MethodGet, "/obj/1?size=1", nil)
		if tc.vals != nil {
			r.Header[ReplicasHeader] = tc.vals
		}
		if got := replicas(r); got != tc.want {
			t.Errorf("%s %q: replicas = %d, want %d", tc.name, tc.vals, got, tc.want)
		}
	}
}

// TestPeerFillProbesFrontDesignatedHolders: a node's peer fill probes the
// holders the front routed with. Object x is made hot at a Front over three
// peered proxies (factor 3: every node holds it), is resident only on its
// third holder, and its next request lands on the second holder, which must
// probe the primary (404) and then the third holder (fill) — not stop at the
// primary as a node guessing factor 1 would.
func TestPeerFillProbesFrontDesignatedHolders(t *testing.T) {
	originSrv := httptest.NewServer(&Origin{})
	defer originSrv.Close()
	const n = 3
	proxies := make([]*Proxy, n)
	urls := make([]string, n)
	for i := range proxies {
		proxies[i] = NewOverloadProxy(staticDecider(t, 2), originSrv.URL, 0, fastResilience(), Overload{})
		srv := httptest.NewServer(proxies[i])
		defer srv.Close()
		urls[i] = srv.URL
	}
	for i, p := range proxies {
		if err := p.SetPeers(PeerConfig{Self: urls[i], Nodes: urls}); err != nil {
			t.Fatal(err)
		}
	}
	const window = 20
	f, err := NewFront(FrontConfig{Backends: urls, RebalanceEvery: window})
	if err != nil {
		t.Fatal(err)
	}
	frontSrv := httptest.NewServer(f)
	defer frontSrv.Close()

	ring, err := lb.NewRing(lb.Config{Servers: n})
	if err != nil {
		t.Fatal(err)
	}
	const x = 1 // the smallest id: first among equal counts in the top-K cut
	var holders [n]int
	ring.Successors(x, holders[:])
	primary, second, third := holders[0], holders[1], holders[2]
	objURL := func(base string, id uint64) string { return fmt.Sprintf("%s/obj/%d?size=1000", base, id) }

	// Window 0: x once (5% of the window: factor 3) and cold filler. x stays
	// non-resident on its primary: one request only records it.
	mustGet(t, objURL(frontSrv.URL, x), nil)
	for id := uint64(100); id < 100+window-1; id++ {
		mustGet(t, objURL(frontSrv.URL, id), nil)
	}
	// Make x resident on its third holder only (direct requests, no front).
	for i := 0; i < 2; i++ {
		mustGet(t, objURL(urls[third], x), nil)
	}
	if resp := mustGet(t, objURL(urls[third], x), nil); resp.Header.Get("X-Cache") == "miss" {
		t.Fatalf("x not resident on its third holder (node %d)", third)
	}
	// Window 1 opens with an object whose primary is x's primary, so the
	// least-loaded holder of x, in ring order, is its second.
	mustGet(t, objURL(frontSrv.URL, peerObjectID(t, n, primary, 1000)), nil)
	f.mu.Lock()
	got := f.rep.Factor(x)
	f.mu.Unlock()
	if got != n {
		t.Fatalf("front replication factor of x = %d, want %d", got, n)
	}

	before := proxies[second].Stats()
	resp := mustGet(t, objURL(frontSrv.URL, x), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(PeerHeader) != "fill" {
		t.Fatalf("x on its second holder: status %d, %s %q, want a peer fill", resp.StatusCode, PeerHeader, resp.Header.Get(PeerHeader))
	}
	after := proxies[second].Stats()
	if probes, fills := after.PeerProbes-before.PeerProbes, after.PeerFills-before.PeerFills; probes != 2 || fills != 1 {
		t.Fatalf("second holder (node %d): %d probes, %d fills, want 2 (primary 404, third holder) and 1", second, probes, fills)
	}
	if st := f.Stats(); st.Replicated == 0 {
		t.Fatalf("front stats %+v: no replicated request", st)
	}
}

// TestFetchPeerAllocs pins what a peer fill that hits on a kept-alive
// connection allocates, the sibling's digest merged from the answer: the
// probe's deadline context and timer (4), the exchange's context.AfterFunc
// registration on it (5), this node's digest rendered for the request (4),
// and the sibling's decoded from the answer (2). Any further allocation on
// the fill path changes the count.
func TestFetchPeerAllocs(t *testing.T) {
	nodes := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	peer := func(self int) *Proxy {
		p := NewOverloadProxy(staticDecider(t, 2), "http://127.0.0.1:3", 0, fastResilience(), Overload{})
		if err := p.SetPeers(PeerConfig{Self: nodes[self], Nodes: nodes}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, sibling := peer(0), peer(1)
	p.peers.ups[1].dial = pipeBackend("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n" +
		GossipHeader + ": " + sibling.peers.gossipValue() + "\r\n\r\nhello")
	id := peerObjectID(t, 2, 1, 1<<40) // large, so that boxing it would allocate
	fill := func() {
		if !p.fetchPeer(context.Background(), id, 5, 1) {
			t.Fatal("the sibling's 200 was not a fill")
		}
	}
	fill() // dial
	if got := testing.AllocsPerRun(200, fill); got != 15 {
		t.Errorf("a peer fill made %v allocations, want 15", got)
	}
	if fills := p.Stats().PeerFills; fills != 202 {
		t.Errorf("PeerFills = %d, want 202", fills)
	}
	closeConns(p.peers.ups[1].idle)
}

// TestServeReadyzGossip: a readiness poll carrying a digest is the gossip
// exchange. The digest is merged and the 200 carries this node's own digest
// back, counted in GossipExchanges; a malformed digest merges nothing but is
// still answered with one, as on peer probes. A poll without a digest is a
// plain 200 that neither beats nor counts, and a poll the verdict refuses is
// a 503 that merges nothing.
func TestServeReadyzGossip(t *testing.T) {
	nodes := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	p := NewOverloadProxy(staticDecider(t, 1), "http://127.0.0.1:9", 0, Resilience{}, Overload{})
	if err := p.SetPeers(PeerConfig{Self: nodes[0], Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	var open atomic.Bool
	readyz := NewHealth(Gate{Name: "recovery", Ready: open.Load}).Gated(p.ServeReadyz)
	poll := func(digest ...string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodGet, "/readyz", nil)
		if len(digest) > 0 {
			r.Header[GossipHeader] = digest
		}
		readyz(w, r)
		return w
	}
	raw := gossip.AppendDigest(nil, 1, []gossip.Entry{{Node: 1, Seq: 5}, {Node: 2, Seq: 9}})
	digest := base64.StdEncoding.EncodeToString(raw)
	memb := p.Membership()

	if w := poll(digest); w.Code != http.StatusServiceUnavailable || len(w.Result().Header[GossipHeader]) > 0 {
		t.Fatalf("gated: status %d, digest %q; want a 503 without one", w.Code, w.Result().Header[GossipHeader])
	}
	if memb.Heard(1) || memb.Seq(0) != 0 || p.Stats().GossipExchanges != 0 {
		t.Fatal("a refused poll merged, beat or counted")
	}
	open.Store(true)

	if w := poll(); w.Code != http.StatusOK || w.Body.String() != "ready\n" || len(w.Result().Header[GossipHeader]) > 0 {
		t.Fatalf("no digest: status %d, body %q, digest %q; want a plain 200", w.Code, w.Body, w.Result().Header[GossipHeader])
	}
	if memb.Seq(0) != 0 || p.Stats().GossipExchanges != 0 {
		t.Fatalf("a poll without a digest beat (seq %d) or counted (%d)", memb.Seq(0), p.Stats().GossipExchanges)
	}

	answered := func(name string, w *httptest.ResponseRecorder) {
		t.Helper()
		v := w.Result().Header[GossipHeader]
		if w.Code != http.StatusOK || len(v) != 1 {
			t.Fatalf("%s: status %d, digest %q; want 200 with one", name, w.Code, v)
		}
		b, err := base64.StdEncoding.DecodeString(v[0])
		if err != nil {
			t.Fatalf("%s: answer digest %q: %v", name, v[0], err)
		}
		sender, entries, err := gossip.DecodeDigest(b, nil)
		if err != nil || sender != 0 || len(entries) == 0 || entries[0].Node != 0 || entries[0].Seq != memb.Seq(0) {
			t.Fatalf("%s: the answer is not this node's fresh digest: sender %d, entries %+v, error %v", name, sender, entries, err)
		}
	}
	for i, bad := range []string{
		"not base64!",
		base64.StdEncoding.EncodeToString(raw[:len(raw)-1]),
		base64.StdEncoding.EncodeToString(append([]byte{'X'}, raw[1:]...)),
	} {
		answered(fmt.Sprintf("malformed #%d", i), poll(bad))
		if memb.Heard(1) || memb.Heard(2) {
			t.Fatalf("malformed #%d: merged the sender's entries", i)
		}
	}
	answered("a digest", poll(digest))
	if memb.Seq(1) != 5 || memb.Seq(2) != 9 {
		t.Fatalf("merged sequences %d and %d, want 5 and 9", memb.Seq(1), memb.Seq(2))
	}
	if seq, n := memb.Seq(0), p.Stats().GossipExchanges; seq != 4 || n != 4 {
		t.Fatalf("own seq %d and %d exchanges after four digest-carrying polls, want 4 and 4", seq, n)
	}

	lone := NewOverloadProxy(staticDecider(t, 1), "http://127.0.0.1:9", 0, Resilience{}, Overload{})
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	r.Header[GossipHeader] = []string{digest}
	lone.ServeReadyz(w, r)
	if w.Code != http.StatusOK || len(w.Result().Header[GossipHeader]) > 0 || lone.Stats().GossipExchanges != 0 {
		t.Fatalf("no membership: status %d, digest %q; want a plain 200", w.Code, w.Result().Header[GossipHeader])
	}
}
