package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"darwin/internal/cache"
	"darwin/internal/diskcache"
	"darwin/internal/gossip"
	"darwin/internal/node"
	"darwin/internal/server"
)

// TestMetricsExposition is the /metrics golden test: a clustered node over a
// data directory and a front tier, every proxy and front counter given a
// distinct value, and each name the parent commit (bf6b560) exposed must
// appear exactly once with the value its source holds. ReadMetrics refuses a
// name that appears twice, so no exposition repeats one either.
func TestMetricsExposition(t *testing.T) {
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	ctx := context.Background()
	origin := httptest.NewServer(&server.Origin{})
	defer origin.Close()
	const deadPeer = "http://127.0.0.1:1" // a cluster member nothing answers for
	cfg := node.Config{
		Expert:   cache.Expert{Freq: 1, MaxSize: 1024},
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   2,
		Store:    diskcache.Config{Dir: t.TempDir(), Sync: diskcache.SyncAlways},
		Origin:   origin.URL,
		Overload: server.DefaultOverload(),
	}
	cfg.Overload.Breaker.Clock = clock

	// A first node journals DC admissions and departs; the node under test
	// recovers them, so the recovery lines carry values.
	first, err := node.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, first.Handler())
	for pass := 0; pass < 2; pass++ {
		for id := uint64(1); id <= 20; id++ {
			get(t, first.Handler(), id, 4096)
		}
	}
	first.Close(ctx)

	srv := httptest.NewUnstartedServer(nil)
	defer srv.Close()
	self := "http://" + srv.Listener.Addr().String()
	cfg.Peer = server.PeerConfig{Self: self, Nodes: []string{self, deadPeer}, Gossip: gossip.Config{Clock: clock}}
	n, err := node.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close(ctx)
	srv.Config.Handler = n.Handler()
	srv.Start()
	waitReady(t, n.Handler())
	brk := server.DefaultPeerBreaker()
	brk.Clock = clock
	front, err := server.NewFront(server.FrontConfig{
		Backends:       []string{self, deadPeer},
		RebalanceEvery: 4,
		Breaker:        brk,
		Gossip:         gossip.Config{Clock: clock},
	})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for id := uint64(15); id <= 30; id++ {
			get(t, n.Handler(), id, 512+int64(id%2)*4096)
			get(t, front, id+100, 512)
		}
	}
	server.AddProxyStats(n.Proxy, distinct[server.ProxyStats])
	server.AddFrontStats(front, distinct[server.FrontStats])

	got := exposition(t, n.Handler())
	m, st := n.Proxy.Metrics(), n.Proxy.Stats()
	bs, _ := n.Proxy.BreakerSnapshot()
	memb := n.Proxy.Membership()
	expect(t, "node", got, map[string]any{
		"requests":                   m.Requests,
		"hoc_hits":                   m.HOCHits,
		"dc_hits":                    m.DCHits,
		"misses":                     m.Misses,
		"ohr":                        fmt.Sprintf("%.4f", m.OHR()),
		"bmr":                        fmt.Sprintf("%.4f", m.BMR()),
		"disk_write_bytes":           m.DCWriteBytes,
		"origin_fetches":             st.OriginFetches,
		"retries":                    st.Retries,
		"fetch_failures":             st.FetchFailures,
		"coalesced":                  st.Coalesced,
		"stale_serves":               st.StaleServes,
		"proxy_errors":               st.Errors,
		"shed":                       st.Shed,
		"deadline_sheds":             st.DeadlineSheds,
		"breaker_rejects":            st.BreakerRejects,
		"hedges":                     st.Hedges,
		"hedge_wins":                 st.HedgeWins,
		"retry_budget_denied":        st.RetryBudgetDenied,
		"peer_probes":                st.PeerProbes,
		"peer_fills":                 st.PeerFills,
		"peer_errors":                st.PeerErrors,
		"peer_rejects":               st.PeerRejects,
		"peer_served":                st.PeerServed,
		"peer_skips_dead":            st.PeerSkipsDead,
		"gossip_exchanges":           st.GossipExchanges,
		"state_merges":               st.StateMerges,
		"state_rejects":              st.StateRejects,
		"state_pushes":               st.StatePushes,
		"commit_raced":               st.CommitRaced,
		"gossip_peer_status{node=1}": memb.Status(1),
		"gossip_peer_phi{node=1}":    fmt.Sprintf("%.3f", memb.Phi(1)),
		"breaker_state":              bs.State,
		"breaker_opens":              bs.Opens,
		"breaker_half_opens":         bs.HalfOpens,
		"breaker_reopens":            bs.Reopens,
		"breaker_closes":             bs.Closes,
		"breaker_denied":             bs.Denied,
		"breaker_probes":             bs.Probes,
		"recovered":                  1,
		"journal_dropped_ops":        0,
		"journal_compactions":        0,
	})
	// The journal's own stats are not reachable from here: its lines must be
	// integers that agree with the recovered 20 objects and with each other.
	j := make(map[string]int64)
	for _, name := range []string{"journal_live_objects", "journal_live_bytes", "journal_log_bytes", "journal_segments",
		"journal_syncs", "recovered_puts", "journal_puts", "journal_removes"} {
		v, err := got.Int(name)
		if err != nil {
			t.Fatalf("node: %v", err)
		}
		j[name] = v
	}
	if j["recovered_puts"] != 20 || j["journal_live_objects"] != j["recovered_puts"]+j["journal_puts"]-j["journal_removes"] ||
		j["journal_live_bytes"] < 20*4096 || j["journal_log_bytes"] == 0 || j["journal_segments"] < 1 || j["journal_syncs"] < j["journal_puts"] {
		t.Fatalf("journal lines %v disagree with the recovered 20 objects of 4096 bytes or with each other", j)
	}

	got = exposition(t, http.HandlerFunc(front.ServeMetrics))
	fs, rs, weights := front.Stats(), front.ReplicationStats(), front.Weights()
	want := map[string]any{
		"requests":           fs.Requests,
		"relayed":            fs.Relayed,
		"failovers":          fs.Failovers,
		"breaker_rejects":    fs.BreakerRejects,
		"no_backend":         fs.NoBackend,
		"replicated":         fs.Replicated,
		"window":             front.Window(),
		"rep_observed":       rs.Observed,
		"rep_hot_objects":    rs.HotObjects,
		"rep_extra_replicas": rs.ExtraReplicas,
		"rep_max_factor":     rs.MaxFactor,
	}
	for i := range weights {
		timeouts, refused := front.ProbeStats(i)
		want[fmt.Sprintf("backend_weight{node=%d}", i)] = fmt.Sprintf("%g", weights[i])
		want[fmt.Sprintf("backend_status{node=%d}", i)] = front.MembershipStatus(i)
		want[fmt.Sprintf("probe_timeout{node=%d}", i)] = timeouts
		want[fmt.Sprintf("probe_refused{node=%d}", i)] = refused
		want[fmt.Sprintf("gossip_phi{node=%d}", i)] = fmt.Sprintf("%.3f", front.Membership().Phi(i))
	}
	if fs.Relayed == 0 || rs.Observed == 0 || front.Window() == 0 {
		t.Fatalf("front stats %+v, replication %+v, window %d: the traffic never reached the front's sources", fs, rs, front.Window())
	}
	expect(t, "front", got, want)
}

// distinct adds (i+1)·1000 to field i of a stats struct: every counter then
// holds a value no other counter can, whatever the traffic left in it.
func distinct[T any](s *T) {
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(v.Field(i).Int() + int64(i+1)*1000)
	}
}

// expect checks that every wanted name is in got with the wanted value.
func expect(t *testing.T, what string, got server.Exposition, want map[string]any) {
	t.Helper()
	for name, v := range want {
		line, ok := got[name]
		if !ok {
			t.Errorf("%s /metrics has no %s", what, name)
		} else if line != fmt.Sprint(v) {
			t.Errorf("%s /metrics: %s %s, want %v", what, name, line, v)
		}
	}
}

func exposition(t *testing.T, h http.Handler) server.Exposition {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	e, err := server.ReadMetrics(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func get(t *testing.T, h http.Handler, id uint64, size int64) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/obj/"+strconv.FormatUint(id, 10)+"?size="+strconv.FormatInt(size, 10), nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET object %d: status %d", id, w.Code)
	}
}

func waitReady(t *testing.T, h http.Handler) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if w.Code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("node never became ready")
		}
	}
}
