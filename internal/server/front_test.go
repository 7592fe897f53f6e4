package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"darwin/internal/gossip"
)

// backendKinds are the two ways a backend presents its health to the front
// tier: the deployed darwin-proxy serves /gossip behind its health verdict;
// anything else (an older build, a foreign server) has only /readyz. The
// front must grade both through the same membership view.
var backendKinds = []string{"gossip", "readyz"}

// frontNode is one cluster node as the front tier sees it: the caching proxy
// at /obj/ plus its health surface, with a "recovery" gate the test can shut.
type frontNode struct {
	health    *Health
	recovered atomic.Bool
	srv       *httptest.Server
}

// frontBackend builds n cluster nodes of the given kind over one origin and
// returns them with their base URLs in cluster order. Gossip-speaking nodes
// are wired into one peer cluster (SetPeers needs every URL, so the
// listeners exist before any node serves).
func frontBackend(t *testing.T, kind string, n int) ([]*frontNode, []string) {
	t.Helper()
	originSrv := httptest.NewServer(&Origin{})
	t.Cleanup(originSrv.Close)
	nodes := make([]*frontNode, n)
	proxies := make([]*Proxy, n)
	urls := make([]string, n)
	for i := range nodes {
		node := &frontNode{}
		node.recovered.Store(true)
		node.health = NewHealth(Gate{Name: "recovery", Ready: node.recovered.Load})
		proxies[i] = NewOverloadProxy(staticDecider(t, 2), originSrv.URL, 0, fastResilience(), Overload{})
		mux := http.NewServeMux()
		mux.Handle("/obj/", proxies[i])
		mux.HandleFunc("/readyz", node.health.Readyz)
		if kind == "gossip" {
			mux.HandleFunc("/gossip", node.health.Gated(proxies[i].ServeGossip))
		}
		node.srv = httptest.NewUnstartedServer(mux)
		t.Cleanup(node.srv.Close)
		nodes[i], urls[i] = node, "http://"+node.srv.Listener.Addr().String()
	}
	for i, node := range nodes {
		if kind == "gossip" {
			if err := proxies[i].SetPeers(PeerConfig{Self: urls[i], Nodes: urls}); err != nil {
				t.Fatal(err)
			}
		}
		node.srv.Start()
	}
	return nodes, urls
}

// simFront builds a front tier over urls whose failure detector runs on a
// simulated clock, returned with the function that advances it.
func simFront(t *testing.T, urls []string) (*Front, func(time.Duration)) {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	f, err := NewFront(FrontConfig{
		Backends:       urls,
		RebalanceEvery: 100,
		Gossip:         gossip.Config{Clock: func() time.Time { return now }},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, func(d time.Duration) { now = now.Add(d) }
}

// weightsAfterWindow routes one full window so the ring re-reads every
// backend's readiness, and returns the weights the new window runs on.
func weightsAfterWindow(f *Front) []float64 {
	w := f.Window()
	for i := 0; f.Window() == w; i++ {
		f.pick(uint64(w)<<32 | uint64(i))
	}
	return f.Weights()
}

func wantWeights(t *testing.T, when string, got []float64, want ...float64) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: weights %v, want %v", when, got, want)
	}
}

// TestFrontDrainShedsWeightWithinOneWindow is the satellite requirement: a
// backend whose health verdict starts failing (SIGTERM drain) loses its
// entire ring weight at the next window boundary, and every subsequent
// request routes to the survivors — whichever endpoint carried the verdict.
func TestFrontDrainShedsWeightWithinOneWindow(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			nodes, urls := frontBackend(t, kind, 2)
			f, err := NewFront(FrontConfig{Backends: urls, RebalanceEvery: 100})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			f.ProbeOnce(ctx)
			wantWeights(t, "healthy cluster", f.Weights(), 1, 1)

			// Backend 0 starts draining: its verdict flips to 503 immediately.
			nodes[0].health.StartDrain()
			f.ProbeOnce(ctx)

			// Route one full window (its weights predate the drain, so either
			// backend is legal): the boundary must strip backend 0's weight.
			wantWeights(t, "post-drain", weightsAfterWindow(f), 0, 1)
			for i := 0; i < 100; i++ {
				if s, _ := f.pick(uint64(1_000_000 + i)); s == 0 {
					t.Fatalf("request %d routed to the draining backend after the boundary", i)
				}
			}
			if got := f.MembershipStatus(0); got != "declined" {
				t.Fatalf("draining backend status %q, want declined", got)
			}
		})
	}
}

// TestFrontFailoverOnDeadBackend: a backend that dies without draining
// (transport errors, not 503s) is failed over within the same request, its
// breaker opens, and clients keep getting 200s.
func TestFrontFailoverOnDeadBackend(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			nodes, urls := frontBackend(t, kind, 2)
			f, err := NewFront(FrontConfig{
				Backends:       urls,
				RebalanceEvery: 1 << 30, // no boundary: failover alone must cope
			})
			if err != nil {
				t.Fatal(err)
			}
			frontSrv := httptest.NewServer(f)
			defer frontSrv.Close()

			if resp := mustGet(t, frontSrv.URL+"/obj/1?size=500", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("healthy cluster: status %d", resp.StatusCode)
			}

			nodes[0].srv.Close() // node 0 dies hard
			for i := 0; i < 40; i++ {
				resp := mustGet(t, frontSrv.URL+"/obj/"+string(rune('0'+i%10))+"?size=500", nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("request %d after backend death: status %d", i, resp.StatusCode)
				}
			}
			st := f.Stats()
			if st.Failovers == 0 {
				t.Fatal("no failovers recorded despite a dead backend")
			}
			if st.BreakerRejects == 0 {
				t.Fatal("dead backend's breaker never opened")
			}
			if st.NoBackend != 0 {
				t.Fatalf("%d requests found no backend with a live survivor", st.NoBackend)
			}
		})
	}

	// A backend that accepts, then resets the connection in the middle of its
	// response head, is a transport failure like any other: nothing of its
	// answer reaches the client, and the request fails over.
	t.Run("reset-mid-head", func(t *testing.T) {
		bad := newRawBackend(t, func(c net.Conn, _ int) {
			if readRequest(bufio.NewReader(c)) {
				_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nX-Cache: hoc-hit\r\nContent-Le")
				_ = c.(*net.TCPConn).SetLinger(0) // close with a reset, not a FIN
			}
		})
		_, urls := frontBackend(t, "readyz", 1)
		f, err := NewFront(FrontConfig{Backends: []string{bad.url, urls[0]}, RebalanceEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		w := &spyWriter{h: http.Header{}}
		if f.relay(w, httptest.NewRequest("GET", "/obj/1?size=500", nil), 0, 1, 500, 1) {
			t.Fatal("relay reported an answer from a backend that reset mid-head")
		}
		if w.calls != 0 || len(w.h) != 0 {
			t.Fatalf("failed relay wrote to the client: %d calls, headers %v", w.calls, w.h)
		}
		frontSrv := httptest.NewServer(f)
		defer frontSrv.Close()
		for i := 0; i < 40; i++ {
			resp := mustGet(t, fmt.Sprintf("%s/obj/%d?size=500", frontSrv.URL, i%10), nil)
			if resp.StatusCode != http.StatusOK || resp.ContentLength != 500 {
				t.Fatalf("request %d: status %d, length %d", i, resp.StatusCode, resp.ContentLength)
			}
		}
		if st := f.Stats(); st.Failovers == 0 || st.BreakerRejects == 0 || st.NoBackend != 0 {
			t.Fatalf("stats %+v, want failovers, an open breaker and no dropped request", st)
		}
	})
}

// spyWriter counts what a handler does to its ResponseWriter.
type spyWriter struct {
	h     http.Header
	calls int
}

func (w *spyWriter) Header() http.Header { return w.h }
func (w *spyWriter) WriteHeader(int)     { w.calls++ }
func (w *spyWriter) Write(p []byte) (int, error) {
	w.calls++
	return len(p), nil
}

// TestFrontSilenceIsGraded: both kinds of backend are graded by the same
// detector. Once a backend has been heard, a silent probe costs it the
// suspect slice, never the full weight; only an overwhelming gap held for
// the dwell reaches zero, and the first answer starts the walk back.
func TestFrontSilenceIsGraded(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			nodes, urls := frontBackend(t, kind, 2)
			f, advance := simFront(t, urls)
			probe := func(beats int) { // one probe per 250 ms cadence tick
				for i := 0; i < beats; i++ {
					advance(250 * time.Millisecond)
					f.ProbeOnce(context.Background())
				}
			}
			probe(5)
			if seq := f.Membership().Seq(0); seq < 5 {
				t.Fatalf("backend 0 heartbeat sequence %d after 5 answered probes", seq)
			}
			wantWeights(t, "answering on cadence", weightsAfterWindow(f), 1, 1)

			// Backend 0 falls silent (its listener closes: refused probes).
			// Backend 1 keeps answering, so only 0's gap grows.
			nodes[0].srv.Close()
			probe(4)
			wantWeights(t, "one missed second", weightsAfterWindow(f), 0.5, 1)
			if got := f.MembershipStatus(0); got != "suspect" {
				t.Fatalf("silent backend status %q, want suspect", got)
			}
			if _, refused := f.ProbeStats(0); refused != 4 {
				t.Fatalf("%d refused probes classified, want 4", refused)
			}

			probe(40) // phi far past PhiDead, dwell long served
			wantWeights(t, "silent for 11 s", weightsAfterWindow(f), 0, 1)
			if got := f.MembershipStatus(0); got != "dead" {
				t.Fatalf("long-silent backend status %q, want dead", got)
			}
		})
	}
}

// TestFrontGateShedsGossipBackend: a gossip-speaking node whose readiness
// gate is shut (journal recovery, origin breaker open) answers /gossip 503
// just as it answers /readyz 503, and the front declines it at the next
// window; the gate opening restores it. (At the parent commit only a drain
// gated /gossip, so such a node kept its full weight.)
func TestFrontGateShedsGossipBackend(t *testing.T) {
	nodes, urls := frontBackend(t, "gossip", 2)
	f, _ := simFront(t, urls)
	ctx := context.Background()
	f.ProbeOnce(ctx)
	wantWeights(t, "healthy cluster", weightsAfterWindow(f), 1, 1)

	nodes[0].recovered.Store(false)
	f.ProbeOnce(ctx)
	wantWeights(t, "recovery gate shut", weightsAfterWindow(f), 0, 1)
	if got := f.MembershipStatus(0); got != "declined" {
		t.Fatalf("gated backend status %q, want declined", got)
	}

	nodes[0].recovered.Store(true)
	f.ProbeOnce(ctx)
	wantWeights(t, "recovery gate open", weightsAfterWindow(f), 1, 1)
}

// TestFrontNeverHeardAndNeverProbed pins the two rules that cover the
// detector's blind spots: a backend dead since boot (never heard, so phi has
// nothing to accrue on) loses its weight at its first silent probe, while a
// Front on which ProbeOnce has never run keeps every weight at 1.
func TestFrontNeverHeardAndNeverProbed(t *testing.T) {
	nodes, urls := frontBackend(t, "gossip", 3)
	nodes[2].srv.Close() // dead before the front ever looks

	unprobed, _ := simFront(t, urls)
	for i := 0; i < 3; i++ {
		wantWeights(t, "never probed", weightsAfterWindow(unprobed), 1, 1, 1)
	}

	f, _ := simFront(t, urls)
	f.ProbeOnce(context.Background())
	wantWeights(t, "dead since boot", weightsAfterWindow(f), 1, 1, 0)
	if got := f.MembershipStatus(2); got != "declined" {
		t.Fatalf("never-heard backend status %q, want declined", got)
	}
}

// TestFrontReplicatesHotObject: after one observed window, a dominant object
// routes with a widened replica set and the stats surface says so.
func TestFrontReplicatesHotObject(t *testing.T) {
	_, urls := frontBackend(t, "gossip", 3)
	f, err := NewFront(FrontConfig{Backends: urls, RebalanceEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const hot = uint64(77)
	servers := map[int]bool{}
	for i := 0; i < 2500; i++ {
		id := uint64(10_000 + i)
		if i%2 == 0 {
			id = hot
		}
		s, replicas := f.pick(id)
		if id == hot && replicas > 1 {
			servers[s] = true
		}
	}
	if rs := f.ReplicationStats(); rs.HotObjects == 0 || rs.MaxFactor < 2 {
		t.Fatalf("hot object never widened: stats %+v", rs)
	}
	if len(servers) < 2 {
		t.Fatalf("replicated hot object stayed on %d server(s)", len(servers))
	}
}

// TestFrontRelayMatchesDirectFetch is the relay's differential test: for
// every kind of answer a backend gives, what a client sees through the front
// tier — status, the seven relayed headers, body — is what a net/http client
// fetching from the backend directly sees.
func TestFrontRelayMatchesDirectFetch(t *testing.T) {
	answers := []struct {
		name   string
		status int
		header http.Header
		body   string
	}{
		{"hit", 200, http.Header{"X-Cache": xcacheHOC, "Content-Type": contentTypeOctet}, strings.Repeat("h", 70_000)},
		{"dc-hit", 200, http.Header{"X-Cache": xcacheDC, "Content-Type": contentTypeOctet}, "d"},
		{"miss", 200, http.Header{"X-Cache": xcacheMiss, "Content-Type": contentTypeOctet}, strings.Repeat("m", 5_000)},
		{"empty", 200, http.Header{"X-Cache": xcacheMiss, "Content-Type": contentTypeOctet}, ""},
		{"peer-fill", 200, http.Header{"X-Cache": xcacheMiss, PeerHeader: peerFillValue, "Content-Type": contentTypeOctet}, "pp"},
		{"stale", 200, http.Header{"X-Cache": xcacheStale, "Warning": {`110 darwin-proxy "response is stale"`}, "Content-Type": contentTypeOctet}, "ss"},
		{"shed-stale", 200, http.Header{"X-Cache": xcacheStale, ShedHeader: {"breaker"}, "Warning": {`110 darwin-proxy "response is stale"`}}, "ss"},
		{"not-found", 404, http.Header{"Content-Type": {"text/plain; charset=utf-8"}}, "404 page not found\n"},
		{"bad-gateway", 502, http.Header{"Content-Type": {"text/plain; charset=utf-8"}}, "server: origin unavailable\n"},
		{"shed", 503, http.Header{ShedHeader: {"deadline"}, "Retry-After": {"1"}, "Content-Type": {"text/plain; charset=utf-8"}}, "server: overloaded (deadline)\n"},
		{"internal-error", 500, http.Header{}, "boom"},
		{"unsized", 200, http.Header{"X-Cache": {"revalidated"}, "Content-Type": {"image/png"}}, strings.Repeat("c", 10_000)}, // flushed before the handler returns: chunked
	}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _, err := parseObjectURL(r)
		if err != nil || id >= uint64(len(answers)) {
			http.Error(w, "bad test request", http.StatusBadRequest)
			return
		}
		a := answers[id]
		for k, v := range a.header {
			w.Header()[k] = v
		}
		if a.name != "unsized" {
			setContentLength(w.Header(), int64(len(a.body)))
		}
		w.WriteHeader(a.status)
		_, _ = io.WriteString(w, a.body)
	}))
	defer backend.Close()
	f, err := NewFront(FrontConfig{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	frontSrv := httptest.NewServer(f)
	defer frontSrv.Close()

	fetch := func(base string, id int) (int, http.Header, string) {
		resp, err := http.Get(fmt.Sprintf("%s/obj/%d?size=1", base, id))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		relayed := http.Header{}
		for _, k := range relayHeaders {
			if v := resp.Header[k]; len(v) > 0 {
				relayed[k] = v
			}
		}
		return resp.StatusCode, relayed, string(body)
	}
	for round := 0; round < 2; round++ { // the second round runs on kept-alive connections
		for id, a := range answers {
			wantStatus, wantHeader, wantBody := fetch(backend.URL, id)
			if wantStatus != a.status || wantBody != a.body {
				t.Fatalf("%s: the backend itself answered %d with %d body bytes", a.name, wantStatus, len(wantBody))
			}
			status, header, body := fetch(frontSrv.URL, id)
			if status != wantStatus || !reflect.DeepEqual(header, wantHeader) || body != wantBody {
				t.Errorf("%s through the front: %d %v (%d body bytes)\ndirect: %d %v (%d body bytes)",
					a.name, status, header, len(body), wantStatus, wantHeader, len(wantBody))
			}
		}
	}
	if st := f.Stats(); st.Relayed != int64(2*len(answers)) || st.Failovers != 0 {
		t.Fatalf("stats %+v, want every request relayed by the one backend", st)
	}
}
