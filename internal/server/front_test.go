package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"darwin/internal/lb"
)

// frontBackend is one cluster node as the front tier sees it: the caching
// proxy at /obj/ plus its health surface at /readyz.
func frontBackend(t *testing.T, originURL string) (*Proxy, *Health, *httptest.Server) {
	t.Helper()
	dec := staticDecider(t, 2)
	proxy := NewOverloadProxy(dec, originURL, 0, fastResilience(), Overload{})
	health := NewHealth()
	mux := http.NewServeMux()
	mux.Handle("/obj/", proxy)
	mux.HandleFunc("/readyz", health.Readyz)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return proxy, health, srv
}

// TestFrontDrainShedsWeightWithinOneWindow is the satellite requirement: a
// backend whose /readyz starts failing (SIGTERM drain) loses its entire ring
// weight at the next window boundary, and every subsequent request routes to
// the survivors.
func TestFrontDrainShedsWeightWithinOneWindow(t *testing.T) {
	origin := &Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	_, h0, b0 := frontBackend(t, originSrv.URL)
	_, _, b1 := frontBackend(t, originSrv.URL)

	f, err := NewFront(FrontConfig{
		Backends:       []string{b0.URL, b1.URL},
		RebalanceEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f.ProbeOnce(ctx)
	w := f.Weights()
	if w[0] != 1 || w[1] != 1 {
		t.Fatalf("healthy cluster weights %v, want [1 1]", w)
	}

	// Backend 0 starts draining: readyz flips to 503 immediately.
	h0.StartDrain()
	f.ProbeOnce(ctx)

	// Route one full window: the boundary must strip backend 0's weight.
	saw0 := false
	for i := 0; i < 100; i++ {
		if s, _ := f.pick(uint64(i)); s == 0 {
			saw0 = true // window 0 weights predate the drain; both legal
		}
	}
	for i := 100; i < 200; i++ {
		if s, _ := f.pick(uint64(1_000_000 + i)); s == 0 {
			t.Fatalf("request %d routed to the draining backend after the boundary", i)
		}
	}
	if got := f.Weights(); got[0] != 0 || got[1] != 1 {
		t.Fatalf("post-drain weights %v, want [0 1]", got)
	}
	if f.Window() == 0 {
		t.Fatal("window never advanced")
	}
	_ = saw0
}

// TestFrontFailoverOnDeadBackend: a backend that dies without draining
// (transport errors, not 503s) is failed over within the same request, its
// breaker opens, and clients keep getting 200s.
func TestFrontFailoverOnDeadBackend(t *testing.T) {
	origin := &Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	_, _, b0 := frontBackend(t, originSrv.URL)
	_, _, b1 := frontBackend(t, originSrv.URL)

	f, err := NewFront(FrontConfig{
		Backends:       []string{b0.URL, b1.URL},
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

	b0.Close() // node 0 dies hard
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
}

// TestFrontReplicatesHotObject: after one observed window, a dominant object
// routes with a widened replica set and the stats surface says so.
func TestFrontReplicatesHotObject(t *testing.T) {
	origin := &Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	_, _, b0 := frontBackend(t, originSrv.URL)
	_, _, b1 := frontBackend(t, originSrv.URL)
	_, _, b2 := frontBackend(t, originSrv.URL)

	f, err := NewFront(FrontConfig{
		Backends:       []string{b0.URL, b1.URL, b2.URL},
		RebalanceEvery: 1000,
	})
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
	var rs [lb.RsWidth]int64
	f.ReplicationStats(rs[:])
	if rs[lb.RsHotObjects] == 0 || rs[lb.RsMaxFactor] < 2 {
		t.Fatalf("hot object never widened: stats %v", rs)
	}
	if len(servers) < 2 {
		t.Fatalf("replicated hot object stayed on %d server(s)", len(servers))
	}
}
