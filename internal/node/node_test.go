package node

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/diskcache"
	"darwin/internal/gossip"
	"darwin/internal/persist"
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

// dcLen counts the DC residents across eng's shards.
func dcLen(eng *cache.Sharded) int {
	n := 0
	for _, sh := range eng.State().Shards {
		n += len(sh.DC)
	}
	return n
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
	// twice(lo, hi) requests each id twice: the first request's miss marks
	// the object's record, the second admits it to the DC.
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
	if got := dcLen(second.eng); got != len(journaled) {
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

// TestV1CheckpointRecoversFromJournal: a checkpoint file of format version
// 1 is unreadable to this build, so a node that finds one takes the
// corrupt-checkpoint path: it logs, restores nothing from the file, and
// rebuilds its DC from the journal alone.
func TestV1CheckpointRecoversFromJournal(t *testing.T) {
	cfg := Config{
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
	for pass := 0; pass < 2; pass++ {
		for id := uint64(1); id <= 40; id++ {
			fetch(t, srv.URL, id, 4096)
		}
	}
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	journaled := first.dur.store.Live()
	srv.Close() // the kill: no Close on the node
	path := filepath.Join(cfg.Store.Dir, checkpointFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := persist.DecodeFrame(bytes.NewReader(data), core.CheckpointMagic, core.CheckpointFormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := persist.EncodeFrame(&v1, core.CheckpointMagic, 1, payload); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	second, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.dur.loaded != nil {
		t.Fatal("a version-1 checkpoint was loaded")
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
	if len(journaled) != 40 || dcLen(second.eng) != len(journaled) {
		t.Fatalf("recovered DC holds %d objects, the journal %d; want 40", dcLen(second.eng), len(journaled))
	}
	if m := second.eng.Metrics(); m.Requests != 0 {
		t.Fatalf("recovered engine counts %d requests: the checkpoint's metrics were restored", m.Requests)
	}
}

// TestRestartWithOtherShardCount: cache.AutoShards follows GOMAXPROCS, so a
// node restarted on a host with another CPU count finds a checkpoint whose
// engine state has another shard count. Recovery refuses that part and says
// so, leaves the controller state learned over that engine unrestored and
// says so — the controller re-warms — and rebuilds the DC from the journal.
// With the shard count back, a controller state that does not fit (its open
// round is past the restarted node's round length) is refused over the
// restored engine, and the controller re-warms too.
func TestRestartWithOtherShardCount(t *testing.T) {
	cfg := Config{
		Model:    handoffModel(t),
		Online:   handoffOnlineCfg(),
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   2,
		Store:    diskcache.Config{Dir: t.TempDir(), Sync: diskcache.SyncAlways},
		Origin:   testOrigin(t),
	}
	first, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(50, 2000, 77)
	if err != nil {
		t.Fatal(err)
	}
	reqs := tr.Requests
	for st := first.ctrl.CheckpointState(); st.Phase != "identify" || st.RoundReqs != cfg.Online.Round/2; st = first.ctrl.CheckpointState() {
		if st.Epoch > 0 {
			t.Fatal("the node never reached the middle of an identification round")
		}
		first.ctrl.Serve(reqs[0])
		reqs = reqs[1:]
	}
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	atCheckpoint, journaled := first.ctrl.CheckpointState(), first.dur.store.Live()
	if err := first.dur.store.Close(); err != nil {
		t.Fatal(err)
	}
	if len(journaled) == 0 {
		t.Fatal("the journal holds no DC objects; the test would not exercise the replay")
	}

	reopen := func() (*Node, string) {
		n, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.dur.store.Close() })
		return n, stderrOf(t, n.dur.recover)
	}
	cfg.Shards = 4
	second, logged := reopen()
	if got := second.Shards(); got != 4 {
		t.Fatalf("the reopened node runs %d shards, want 4", got)
	}
	if !strings.Contains(logged, "engine state not restored (cache: snapshot has 2 shards, engine has 4)") ||
		!strings.Contains(logged, "controller state not restored") {
		t.Fatalf("recovery logged %q, want the refused engine state and the controller left unrestored", logged)
	}
	if code, body := readyz(t, second); code != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d %q", code, body)
	}
	if got := dcLen(second.eng); got != len(journaled) {
		t.Fatalf("recovered DC holds %d objects, the journal %d", got, len(journaled))
	}
	for _, obj := range journaled {
		if r := second.eng.Lookup(obj.ID); r != cache.DCHit {
			t.Fatalf("journaled object %d is %v after recovery, want a DC hit", obj.ID, r)
		}
	}
	if st := second.ctrl.CheckpointState(); st.Phase != "warmup" || st.Epoch != 0 || st.EpochReqs != 0 || st.Bandit != nil {
		t.Fatalf("a controller without its engine is in %s at epoch %d, request %d; want a fresh warm-up", st.Phase, st.Epoch, st.EpochReqs)
	}

	cfg.Shards, cfg.Online.Round = 2, atCheckpoint.RoundReqs
	third, logged := reopen()
	if !strings.Contains(logged, "controller state not restored (core: round position") ||
		strings.Contains(logged, "engine state not restored") {
		t.Fatalf("recovery logged %q, want the engine restored and the controller state refused", logged)
	}
	if st := third.ctrl.CheckpointState(); st.Phase != "warmup" || st.Epoch != 0 || st.EpochReqs != 0 {
		t.Fatalf("a refused controller is in %s at epoch %d, request %d; want a fresh warm-up", st.Phase, st.Epoch, st.EpochReqs)
	}
}

// TestRestartMidExploitRewarms: a controller state resumes only over the
// engine it was learned on, whose deployed expert the exploit phase runs. A
// node checkpointed mid-exploit, on an expert a fresh engine does not start
// with, and restarted with another shard count restores neither part: it
// logs that the controller was not restored and re-warms from epoch 0, and
// it never reports exploit while its engine runs an expert other than the
// one its epoch log last chose.
func TestRestartMidExploitRewarms(t *testing.T) {
	online := handoffOnlineCfg()
	online.Epoch += online.Round / 2 // identification's last round ends before the epoch does
	cfg := Config{
		Model:    handoffModel(t),
		Online:   online,
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   2,
		Store:    diskcache.Config{Dir: t.TempDir(), Sync: diskcache.SyncOff},
		Origin:   testOrigin(t),
	}
	first, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(50, 20000, 77)
	if err != nil {
		t.Fatal(err)
	}
	reqs := tr.Requests
	for first.ctrl.Phase() != core.PhaseExploit || first.eng.Expert() == cfg.Model.Experts[0] {
		if len(reqs) == 0 {
			t.Fatalf("the node never exploited an expert other than %v: %+v", cfg.Model.Experts[0], first.ctrl.Diags())
		}
		first.ctrl.Serve(reqs[0])
		reqs = reqs[1:]
	}
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := first.dur.store.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Shards = 4
	second, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { second.dur.store.Close() })
	logged := stderrOf(t, second.dur.recover)
	if !strings.Contains(logged, "engine state not restored") || !strings.Contains(logged, "controller state not restored") {
		t.Fatalf("recovery logged %q, want the engine state and the controller state left unrestored", logged)
	}
	if st := second.ctrl.CheckpointState(); st.Phase != "warmup" || st.Epoch != 0 || st.EpochReqs != 0 {
		t.Fatalf("the restarted controller is in %s at epoch %d, request %d; want a fresh warm-up", st.Phase, st.Epoch, st.EpochReqs)
	}
	deployed := func() {
		t.Helper()
		if second.ctrl.Phase() != core.PhaseExploit {
			return
		}
		diags := second.ctrl.Diags()
		if len(diags) == 0 || diags[len(diags)-1].Chosen != second.eng.Expert() {
			t.Fatalf("the node exploits on %v; its epoch log %+v chose otherwise", second.eng.Expert(), diags)
		}
	}
	deployed()
	for _, r := range reqs[:2*cfg.Online.Epoch] {
		second.ctrl.Serve(r)
		deployed()
	}
}

// TestRestartOverLongEpochLog: a node built before the controller kept only
// its newest 256 epoch diagnostics wrote its whole epoch log into every
// checkpoint. A restart over such a checkpoint restores its engine — the HOC
// residents and the request counts — and leaves only the controller state
// unrestored: it logs so and starts a fresh warm-up.
func TestRestartOverLongEpochLog(t *testing.T) {
	restartOverControllerPart(t, func(ck *parts) { ck.ctrl.Diags = make([]core.EpochDiag, 257) })
}

// TestRestartOverWrongTypedControllerPart: a checkpoint file whose
// controller part is not a JSON object still restores its engine, and the
// controller re-warms; the file is not unreadable.
func TestRestartOverWrongTypedControllerPart(t *testing.T) {
	restartOverControllerPart(t, func(ck *parts) { ck.ctrl, ck.rawCtrl = nil, json.RawMessage(`"garbage"`) })
}

// restartOverControllerPart restarts a node over its own checkpoint file
// with the controller part edited into one restore refuses: the engine part
// restores, the controller state is logged as not restored and re-warms.
func restartOverControllerPart(t *testing.T, edit func(ck *parts)) {
	cfg := Config{
		Model:    handoffModel(t),
		Online:   handoffOnlineCfg(),
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   2,
		Store:    diskcache.Config{Dir: t.TempDir(), Sync: diskcache.SyncOff},
		Origin:   testOrigin(t),
	}
	first, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(50, 1000, 77)
	if err != nil {
		t.Fatal(err)
	}
	first.ctrl.Play(tr)
	ck := partsOf(first.eng, first.ctrl)
	edit(ck)
	frame := ck.frame(t)
	if err := first.dur.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.Store.Dir, checkpointFile), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	var second *Node
	logged := stderrOf(t, func() { // the checkpoint file is read by build
		if second, err = build(cfg); err != nil {
			t.Fatal(err)
		}
		second.dur.recover()
	})
	t.Cleanup(func() { second.dur.store.Close() })
	if !strings.Contains(logged, "controller state not restored") ||
		strings.Contains(logged, "unreadable") || strings.Contains(logged, "engine state not restored") {
		t.Fatalf("recovery logged %q, want the engine restored and the controller state refused", logged)
	}
	hoc := 0
	for i, sh := range second.eng.State().Shards {
		w := ck.eng.Shards[i]
		if !reflect.DeepEqual(sh.HOC, w.HOC) || !reflect.DeepEqual(sh.Tracker, w.Tracker) {
			t.Fatalf("shard %d: the restored HOC or request counts are not the checkpoint's", i)
		}
		hoc += len(sh.HOC)
	}
	if hoc == 0 {
		t.Fatal("the checkpoint's HOC is empty; the test would not exercise its restore")
	}
	if st := second.ctrl.CheckpointState(); st.Phase != "warmup" || st.Epoch != 0 || st.EpochReqs != 0 || len(st.Diags) != 0 {
		t.Fatalf("the restarted controller is in %s at epoch %d, request %d, with %d diagnostics; want a fresh warm-up",
			st.Phase, st.Epoch, st.EpochReqs, len(st.Diags))
	}
}

// TestRecoveryJournalsWhatNoLongerFits: a node restarted with a smaller DC
// keeps the newest journaled objects that fit, and journals a Remove for
// each one it drops, so the journal lists exactly the DC's residents and
// the recovery line counts those, not the journal it started from.
func TestRecoveryJournalsWhatNoLongerFits(t *testing.T) {
	cfg := Config{
		Expert:   cache.Expert{Freq: 1, MaxSize: 1 << 20},
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   2,
		Store:    diskcache.Config{Dir: t.TempDir(), Sync: diskcache.SyncOff},
		Origin:   testOrigin(t),
	}
	first, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(50, 20000, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests {
		first.eng.Serve(r)
	}
	journaled := len(first.dur.store.Live())
	if err := first.dur.store.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.DCBytes = 1 << 20
	second, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { second.dur.store.Close() })
	logged := stderrOf(t, second.dur.recover)
	residents := map[uint64]int64{}
	for _, sh := range second.eng.State().Shards {
		for _, o := range sh.DC {
			residents[o.ID] = o.Size
		}
	}
	live := map[uint64]int64{}
	for _, o := range second.dur.store.Live() {
		live[o.ID] = o.Size
	}
	if len(residents) == 0 || len(residents) >= journaled {
		t.Fatalf("the 1 MiB DC holds %d of %d journaled objects; the test needs some kept and some dropped", len(residents), journaled)
	}
	if !reflect.DeepEqual(live, residents) {
		t.Fatalf("the journal lists %d live objects, the DC holds %d", len(live), len(residents))
	}
	if want := fmt.Sprintf("recovered %d DC objects", len(residents)); !strings.Contains(logged, want) {
		t.Fatalf("recovery logged %q, want %q", logged, want)
	}
}

// stderrOf returns what f writes to os.Stderr, where the node logs.
func stderrOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		r.Close()
		out <- string(b)
	}()
	orig := os.Stderr
	os.Stderr = w
	func() {
		defer func() {
			os.Stderr = orig
			w.Close()
		}()
		f()
	}()
	return <-out
}

// TestCheckpointFile: the checkpoint file holds exactly
// core.EncodeCheckpointFrame of the node's snapshot, and a node built on the
// directory loads it. A missing file is a silent cold start; a corrupt file
// is logged and loads nothing, so the node recovers from the journal alone
// (TestV1CheckpointRecoversFromJournal drives a version-1 file).
func TestCheckpointFile(t *testing.T) {
	cfg := Config{
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   2,
		Expert:   cache.Expert{Freq: 1, MaxSize: 1 << 20},
		Store:    diskcache.Config{Dir: t.TempDir(), Sync: diskcache.SyncAlways},
		Origin:   testOrigin(t),
	}
	reopen := func() (*Node, string) {
		var n *Node
		logged := stderrOf(t, func() {
			var err error
			if n, err = build(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Cleanup(func() { n.dur.store.Close() })
		return n, logged
	}
	if n, logged := reopen(); n.dur.loaded != nil || strings.Contains(logged, "checkpoint") {
		t.Fatalf("missing checkpoint: loaded %v, logged %q", n.dur.loaded, logged)
	}

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close(context.Background())
	srv := httptest.NewServer(first.Handler())
	defer srv.Close()
	for pass := 0; pass < 2; pass++ {
		for id := uint64(1); id <= 40; id++ {
			fetch(t, srv.URL, id, 4096)
		}
	}
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cfg.Store.Dir, checkpointFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EncodeCheckpointFrame(snapshot(first.eng, first.ctrl))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("checkpoint file differs from EncodeCheckpointFrame of the snapshot")
	}
	if n, _ := reopen(); n.dur.loaded == nil {
		t.Fatal("checkpoint file did not load")
	} else if es, err := n.dur.loaded.EngineState(); err != nil || !reflect.DeepEqual(es, first.eng.State()) {
		t.Fatalf("checkpoint file did not load the engine state it holds (%v)", err)
	}

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, logged := reopen(); n.dur.loaded != nil || !strings.Contains(logged, "checkpoint unreadable") {
		t.Fatalf("corrupt checkpoint: loaded %v, logged %q", n.dur.loaded, logged)
	}
}

// TestPeriodicCheckpointerWrites: with CheckpointEvery set, the background
// loop writes the checkpoint file while the node runs, so a crash loses at
// most one period of learned state. The file must appear, decode, and hold
// the served objects as residents before any Close writes its final one.
func TestPeriodicCheckpointerWrites(t *testing.T) {
	cfg := Config{
		HOCBytes:        256 << 10,
		DCBytes:         32 << 20,
		Shards:          2,
		Expert:          cache.Expert{Freq: 1, MaxSize: 1 << 20},
		Store:           diskcache.Config{Dir: t.TempDir(), Sync: diskcache.SyncAlways},
		CheckpointEvery: 10 * time.Millisecond,
		Origin:          testOrigin(t),
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close(context.Background())
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	const objects = 8
	for pass := 0; pass < 2; pass++ {
		for id := uint64(1); id <= objects; id++ {
			fetch(t, srv.URL, id, 4096)
		}
	}
	// residents reads the checkpoint file's resident ids; an absent or
	// undecodable file holds none.
	residents := func() map[uint64]bool {
		ck := loadCheckpoint(filepath.Join(cfg.Store.Dir, checkpointFile))
		if ck == nil {
			return nil
		}
		es, err := ck.EngineState()
		if err != nil {
			return nil
		}
		ids := map[uint64]bool{}
		for _, sh := range es.Shards {
			for _, o := range append(sh.HOC, sh.DC...) {
				ids[o.ID] = true
			}
		}
		return ids
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		ids, missing := residents(), 0
		for id := uint64(1); id <= objects; id++ {
			if !ids[id] {
				missing++
			}
		}
		if missing == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("2 s after serving, the checkpoint file holds %d of %d served objects (%d residents)", objects-missing, objects, len(ids))
		}
	}
}

// TestModelCarryingCheckpointRestores: testdata/darwin.ckpt is a checkpoint
// file as darwin-mode nodes wrote it while checkpoints carried the model —
// written at commit 2e76c99 by a node built with this package's
// handoffModel, handoffOnlineCfg, 2 shards, a 256 KiB HOC, a 32 MiB DC and a
// data directory, which served tracegen.ImageDownloadMix(50, 250, 1001) over
// HTTP and was then closed, mid-identification. A node of this build on a
// directory holding that file ignores the model inside, restores the
// engine and the controller, and logs nothing unreadable or refused.
func TestModelCarryingCheckpointRestores(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if keys := payloadKeys(t, data); !reflect.DeepEqual(keys, []string{"controller", "engine", "model"}) {
		t.Fatalf("testdata checkpoint carries %v, want a controller, an engine and a model", keys)
	}
	want := decodeParts(t, data)
	if want.ctrl.Bandit == nil {
		t.Fatal("testdata checkpoint carries no bandit posteriors; the test would not exercise them")
	}
	cfg := Config{
		Model:    handoffModel(t),
		Online:   handoffOnlineCfg(),
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   2,
		Store:    diskcache.Config{Dir: t.TempDir()},
		Origin:   testOrigin(t),
	}
	if err := os.WriteFile(filepath.Join(cfg.Store.Dir, checkpointFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var n *Node
	logged := stderrOf(t, func() {
		if n, err = build(cfg); err != nil {
			t.Fatal(err)
		}
		n.dur.recover()
	})
	t.Cleanup(func() { n.dur.store.Close() })
	if strings.Contains(logged, "unreadable") || strings.Contains(logged, "not restored") || !strings.Contains(logged, "checkpoint=true") {
		t.Fatalf("recovery logged %q, want the checkpoint restored whole", logged)
	}
	for i, sh := range n.eng.State().Shards {
		w := want.eng.Shards[i]
		if !reflect.DeepEqual(sh.HOC, w.HOC) || sh.Metrics != w.Metrics || sh.Expert != w.Expert || sh.ReqIdx != w.ReqIdx {
			t.Fatalf("shard %d: the restored engine is not the checkpoint's", i)
		}
	}
	if got := n.ctrl.CheckpointState(); !reflect.DeepEqual(got, want.ctrl) {
		t.Fatalf("the restored controller is not the checkpoint's:\n got %+v\nwant %+v", got, want.ctrl)
	}
}

// TestNewRemovesLeftoverTempFiles: a crash inside persist.WriteFileAtomic
// leaves its "<name>.tmp-<random>" file beside the checkpoint or the
// journal. A node opening the directory removes both kinds and nothing else.
// The node is built with Shards 0, so Shards reports the engine's resolved
// count, cache.AutoShards().
func TestNewRemovesLeftoverTempFiles(t *testing.T) {
	dir := t.TempDir()
	temps := []string{checkpointFile + ".tmp-1", "journal.log.tmp-2"}
	for _, name := range append(temps, "unrelated") {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("left behind"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := New(Config{
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Expert:   cache.Expert{Freq: 1, MaxSize: 1 << 20},
		Store:    diskcache.Config{Dir: dir},
		Origin:   testOrigin(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close(context.Background())
	if got, want := n.Shards(), cache.AutoShards(); got != want {
		t.Errorf("a node built with Shards 0 runs %d shards, want cache.AutoShards() = %d", got, want)
	}
	for _, name := range temps {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived New: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "unrelated")); err != nil {
		t.Errorf("an unrelated file did not survive New: %v", err)
	}
}

// TestNewClosesJournalWhenAssemblyFails: a node whose assembly fails after
// it opened its journal — here the controller refuses an epoch of 0 — returns
// that error and closes the journal (Node.abandon): New leaves no file
// descriptor open.
func TestNewClosesJournalWhenAssemblyFails(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open descriptors: %v", err)
		}
		return len(ents)
	}
	cfg := Config{
		Model:    handoffModel(t),
		Online:   core.OnlineConfig{Epoch: 0, Warmup: 1, Round: 1},
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   1,
		Store:    diskcache.Config{Dir: t.TempDir()},
		Origin:   testOrigin(t),
	}
	before := openFDs()
	n, err := New(cfg)
	if n != nil || err == nil || !strings.Contains(err.Error(), "epoch/warmup/round must be positive") {
		t.Fatalf("New with epoch 0: node %v, error %v; want the controller's refusal", n, err)
	}
	if after := openFDs(); after != before {
		t.Fatalf("%d descriptors open before New, %d after: the journal was not closed", before, after)
	}
}

// TestRunClosesNodeWhenDrainOverruns: one client that never finishes its
// request makes the HTTP drain overrun its deadline. (2 s, well inside the
// 5 s the server allows a request head: the same budget then bounds the
// handoff push, and decoding a frame takes hundreds of milliseconds under
// the race detector.) Run must still hand the state to the ring successor,
// write the final checkpoint and close the journal — and only then report
// the drain error. At the parent commit main exited on that error: no push,
// no checkpoint. Every goroutine the node started must be gone afterwards.
func TestRunClosesNodeWhenDrainOverruns(t *testing.T) {
	originSrv := httptest.NewServer(&server.Origin{})
	defer originSrv.Close()
	origin := originSrv.URL
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
	// Run's signal.NotifyContext starts os/signal's one process-wide watcher
	// on first use: start it before counting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGUSR1)
	signal.Stop(sig)
	goroutines := runtime.NumGoroutine()

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

	// The test's own connections go first: the hung client, this process's
	// keep-alive clients, and the servers' ends of the donor's pooled
	// connections. What is left over the count is the node's.
	hung.Close()
	http.DefaultClient.CloseIdleConnections()
	originSrv.CloseClientConnections()
	heirSrv.CloseClientConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before the node started, %d after Run returned: the node left one running", goroutines, n)
	}
}

// TestReadyzIsTheGossipExchange: a node has one health poll. No node serves
// /gossip (a POST there is a 404, which an older front answers by falling
// back to /readyz); a clustered node's /readyz carrying a digest answers with
// its own, while a plain /readyz (a balancer's start-up wait) neither beats
// nor counts, a node without -peers answers every poll plainly, and a
// draining node's 503 exchanges nothing.
func TestReadyzIsTheGossipExchange(t *testing.T) {
	cfg := Config{
		Expert:   cache.Expert{Freq: 1, MaxSize: 1 << 20},
		HOCBytes: 256 << 10,
		DCBytes:  1 << 20,
		Shards:   1,
		Origin:   "http://127.0.0.1:9",
	}
	lone, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Peer = server.PeerConfig{Self: "http://127.0.0.1:1", Nodes: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}}
	peered, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	poll := func(n *Node, method, path string, digest bool) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(method, path, nil)
		if digest {
			// An observer's empty digest, as a front that has heard nothing sends.
			r.Header.Set(server.GossipHeader, base64.StdEncoding.EncodeToString(gossip.AppendDigest(nil, -1, nil)))
		}
		n.Handler().ServeHTTP(w, r)
		return w
	}
	for _, n := range []*Node{lone, peered} {
		if w := poll(n, http.MethodPost, "/gossip", true); w.Code != http.StatusNotFound {
			t.Fatalf("POST /gossip: status %d, want 404", w.Code)
		}
	}
	if w := poll(lone, http.MethodGet, "/readyz", true); w.Code != http.StatusOK || w.Header().Get(server.GossipHeader) != "" {
		t.Fatalf("node without -peers: status %d, digest %q; want a plain 200", w.Code, w.Header().Get(server.GossipHeader))
	}

	memb := peered.Proxy.Membership()
	if w := poll(peered, http.MethodGet, "/readyz", false); w.Code != http.StatusOK || w.Header().Get(server.GossipHeader) != "" {
		t.Fatalf("plain /readyz: status %d, digest %q; want a plain 200", w.Code, w.Header().Get(server.GossipHeader))
	}
	if seq, n := memb.Seq(0), peered.Proxy.Stats().GossipExchanges; seq != 0 || n != 0 {
		t.Fatalf("a plain /readyz moved own seq to %d and exchanges to %d, want 0 and 0", seq, n)
	}
	if w := poll(peered, http.MethodGet, "/readyz", true); w.Code != http.StatusOK || w.Header().Get(server.GossipHeader) == "" {
		t.Fatalf("digest-carrying /readyz: status %d, no digest back", w.Code)
	}
	if seq, n := memb.Seq(0), peered.Proxy.Stats().GossipExchanges; seq != 1 || n != 1 {
		t.Fatalf("one exchange: own seq %d and %d exchanges, want 1 and 1", seq, n)
	}
	peered.Health.StartDrain()
	if w := poll(peered, http.MethodGet, "/readyz", true); w.Code != http.StatusServiceUnavailable || w.Header().Get(server.GossipHeader) != "" {
		t.Fatalf("draining: status %d, digest %q; want a 503 without one", w.Code, w.Header().Get(server.GossipHeader))
	}
	if seq, n := memb.Seq(0), peered.Proxy.Stats().GossipExchanges; seq != 1 || n != 1 {
		t.Fatalf("a refused poll moved own seq to %d and exchanges to %d", seq, n)
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

// TestZeroByteObjectSurvivesRestartAndHandoff: a node serves and admits a
// zero-byte object like any other, so everything it persists or hands on
// with one must load again. A durable clustered node serves object 7 at
// size 0 twice (the second request admits it to the DC), then other
// objects. Its drain-time frame must be merged by the successor, and a
// restart on its data directory must restore the checkpoint's engine and
// replay the whole journal instead of continuing cold.
func TestZeroByteObjectSurvivesRestartAndHandoff(t *testing.T) {
	heirSrv := httptest.NewUnstartedServer(nil)
	defer heirSrv.Close()
	donorSrv := httptest.NewUnstartedServer(nil)
	defer donorSrv.Close()
	urls := []string{"http://" + donorSrv.Listener.Addr().String(), "http://" + heirSrv.Listener.Addr().String()}
	cfg := Config{
		Expert:   cache.Expert{Freq: 1, MaxSize: 1 << 20},
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   2,
		Origin:   testOrigin(t),
		Peer:     server.PeerConfig{Self: urls[1], Nodes: urls},
	}
	heir, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer heir.Close(context.Background())
	heirSrv.Config.Handler = heir.Handler()
	heirSrv.Start()

	cfg.Peer.Self = urls[0]
	cfg.Store = diskcache.Config{Dir: t.TempDir(), Sync: diskcache.SyncAlways}
	donor, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	donorSrv.Config.Handler = donor.Handler()
	donorSrv.Start()
	fetch(t, urls[0], 7, 0)
	fetch(t, urls[0], 7, 0)
	for pass := 0; pass < 2; pass++ {
		for id := uint64(100); id < 140; id++ {
			fetch(t, urls[0], id, 4096)
		}
	}
	if r := donor.eng.Lookup(7); r != cache.DCHit {
		t.Fatalf("zero-byte object is %v on the donor, want a DC hit", r)
	}
	metrics, journaled := donor.eng.Metrics(), donor.dur.store.Live()
	donor.Close(context.Background()) // pushes the frame, writes the checkpoint
	donorSrv.Close()
	if st := heir.Proxy.Stats(); st.StateMerges != 1 || st.StateRejects != 0 {
		t.Fatalf("successor merged %d frames and rejected %d, want 1 and 0", st.StateMerges, st.StateRejects)
	}
	if r := heir.eng.Lookup(7); r != cache.DCHit {
		t.Fatalf("zero-byte object is %v on the successor, want a DC hit", r)
	}

	cfg.Peer = server.PeerConfig{}
	restarted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close(context.Background())
	for deadline := time.Now().Add(10 * time.Second); !restarted.dur.recovered.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("recovery never finished")
		}
	}
	if got := restarted.eng.Metrics(); got != metrics {
		t.Fatalf("restarted engine counts %+v, the checkpoint %+v: its engine was not restored", got, metrics)
	}
	if got := dcLen(restarted.eng); got != len(journaled) {
		t.Fatalf("restarted DC holds %d objects, the journal %d", got, len(journaled))
	}
	if r := restarted.eng.Lookup(7); r != cache.DCHit {
		t.Fatalf("zero-byte object is %v after the restart, want a DC hit", r)
	}
}
