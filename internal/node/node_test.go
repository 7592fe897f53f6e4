package node

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"darwin/internal/cache"
	"darwin/internal/diskcache"
	"darwin/internal/server"
	"darwin/internal/tracegen"
)

// testOrigin serves any object, for nodes under test to fetch from.
func testOrigin(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(&server.Origin{})
	t.Cleanup(srv.Close)
	return srv.URL
}

func fetch(t *testing.T, base string, id uint64, size int64) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/obj/%d?size=%d", base, id, size))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET object %d: status %d", id, resp.StatusCode)
	}
}

func readyz(t *testing.T, n *Node) (int, string) {
	t.Helper()
	w := httptest.NewRecorder()
	n.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	return w.Code, w.Body.String()
}

// TestKilledNodeRecovers: a node dropped without Close is a crashed node. A
// second node on the same directory holds /readyz at 503 until recovery has
// run, and then serves what the first left durable: the HOC and the bandit
// posteriors as of the last checkpoint, and the DC as of the kill — the
// journal wins over the checkpoint's older DC.
func TestKilledNodeRecovers(t *testing.T) {
	cfg := Config{
		Model:    handoffModel(t),
		Online:   handoffOnlineCfg(),
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   2,
		Store:    diskcache.Config{Dir: t.TempDir(), Sync: diskcache.SyncAlways},
		Origin:   testOrigin(t),
	}
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(first.Handler())
	// twice(lo, hi) requests each id twice: the first request registers the
	// object in the one-hit-wonder filter, the second admits it to the DC.
	twice := func(lo, hi uint64) {
		for pass := 0; pass < 2; pass++ {
			for id := lo; id < hi; id++ {
				fetch(t, srv.URL, id, 4096)
			}
		}
	}
	// Seeded traffic carries the controller into its identify phase, so the
	// checkpoint holds live posteriors.
	tr, err := tracegen.ImageDownloadMix(50, 250, 1001)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range tr.Requests {
		fetch(t, srv.URL, req.ID, req.Size)
	}
	twice(1<<40, 1<<40+60)
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	atCheckpoint := first.ctrl.CheckpointState()
	hocAtCheckpoint := first.eng.State()
	if atCheckpoint.Bandit == nil {
		t.Fatal("the checkpoint carries no bandit posteriors; the test would not exercise them")
	}
	// The tail the crash loses from the checkpoint: only the journal has it.
	twice(1<<40+60, 1<<40+120)
	journaled := first.dur.store.Live()
	srv.Close() // the kill: no Close on the node

	second, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := readyz(t, second); code != http.StatusServiceUnavailable || !strings.Contains(body, "recovery") {
		t.Fatalf("/readyz before recovery: %d %q, want 503 naming the recovery gate", code, body)
	}
	second.dur.start()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if code, _ := readyz(t, second); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovery gate never opened")
		}
	}
	defer second.Close(context.Background())

	if len(journaled) < 120 {
		t.Fatalf("journal held %d live objects at the kill, want >= 120", len(journaled))
	}
	for _, obj := range journaled {
		if r := second.eng.Lookup(obj.ID); r != cache.HOCHit && r != cache.DCHit {
			t.Fatalf("journaled object %d is not resident after recovery", obj.ID)
		}
	}
	if got := second.eng.DCLen(); got != len(journaled) {
		t.Fatalf("recovered DC holds %d objects, the journal %d", got, len(journaled))
	}
	got := second.eng.State()
	for i, sh := range got.Shards {
		if !reflect.DeepEqual(sh.HOC, hocAtCheckpoint.Shards[i].HOC) {
			t.Fatalf("shard %d: recovered HOC is not the checkpoint's", i)
		}
	}
	if st := second.ctrl.CheckpointState(); !reflect.DeepEqual(st.Bandit, atCheckpoint.Bandit) || st.Epoch != atCheckpoint.Epoch || st.EpochReqs != atCheckpoint.EpochReqs {
		t.Fatalf("recovered controller is not the checkpoint's:\n got %+v\nwant %+v", st, atCheckpoint)
	}
}

// TestRunClosesNodeWhenDrainOverruns: one client that never finishes its
// request makes the HTTP drain overrun its deadline. (2 s, well inside the
// 5 s the server allows a request head: the same budget then bounds the
// handoff push, and decoding a frame takes hundreds of milliseconds under
// the race detector.) Run must still hand the state to the ring successor,
// write the final checkpoint and close the journal — and only then report
// the drain error. At the parent commit main exited on that error: no push,
// no checkpoint.
func TestRunClosesNodeWhenDrainOverruns(t *testing.T) {
	origin := testOrigin(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	heirSrv := httptest.NewUnstartedServer(nil)
	defer heirSrv.Close()
	urls := []string{"http://" + addr, "http://" + heirSrv.Listener.Addr().String()}
	cfg := Config{
		Expert:   cache.Expert{Freq: 1, MaxSize: 1 << 20},
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   1,
		Origin:   origin,
	}
	cfg.Peer = server.PeerConfig{Self: urls[1], Nodes: urls}
	heir, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heirSrv.Config.Handler = heir.Handler()
	heirSrv.Start()

	dir := t.TempDir()
	cfg.Peer.Self = urls[0]
	cfg.Store = diskcache.Config{Dir: dir}
	donor, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() { done <- donor.Run(ctx, addr, 0, 2*time.Second) }()

	// The hung client: a request head that never ends. Once the server has
	// the connection, it is active and Shutdown must wait for it.
	var hung net.Conn
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if hung, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("donor never listened: %v", err)
		}
	}
	defer hung.Close()
	if _, err := io.WriteString(hung, "GET /obj/1?size=10 HTTP/1.1\r\nHost: donor\r\n"); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for id := uint64(1); id <= 50; id++ {
			fetch(t, urls[0], id, 4096)
		}
	}

	stop()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "shutdown") {
		t.Fatalf("Run returned %v, want the drain's shutdown error", err)
	}
	if st := donor.Proxy.Stats(); st.StatePushes != 1 {
		t.Fatalf("state_pushes %d after an overrun drain, want 1", st.StatePushes)
	}
	if st := heir.Proxy.Stats(); st.StateMerges != 1 {
		t.Fatalf("successor state_merges %d, want 1", st.StateMerges)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil || !bytes.HasPrefix(ckpt, []byte("DRWNCKPT")) {
		t.Fatalf("no final checkpoint after an overrun drain: %v", err)
	}
	if err := donor.dur.store.Sync(); err == nil {
		t.Fatal("the journal still accepts a Sync: it was not closed")
	}
}

// TestMetricsListsEveryProxyStat: every server.ProxyStats field must appear on
// exactly one line of the rendering /metrics uses, and every one of those
// lines must be in a live node's /metrics.
func TestMetricsListsEveryProxyStat(t *testing.T) {
	var st server.ProxyStats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(1000 + i))
	}
	var buf bytes.Buffer
	server.WriteMetrics(&buf, "", st)
	seen := make(map[string]int)
	var names []string
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines {
		name, value, ok := strings.Cut(line, " ")
		if !ok || name == "" {
			t.Fatalf("malformed metrics line %q", line)
		}
		seen[value]++
		names = append(names, name)
	}
	for i := 0; i < v.NumField(); i++ {
		if n := seen[fmt.Sprint(1000+i)]; n != 1 {
			t.Errorf("ProxyStats.%s appears on %d /metrics lines, want 1", v.Type().Field(i).Name, n)
		}
	}
	if len(lines) != v.NumField() {
		t.Errorf("%d lines for %d ProxyStats fields", len(lines), v.NumField())
	}

	n, err := New(Config{HOCBytes: 1 << 20, DCBytes: 8 << 20, Shards: 1, Origin: testOrigin(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close(context.Background()) })
	rec := httptest.NewRecorder()
	n.serveMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	exp, err := server.ReadMetrics(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, ok := exp[name]; !ok {
			t.Errorf("/metrics has no %s line", name)
		}
	}
}
