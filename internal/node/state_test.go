package node

// Property tests for the drain-time state handoff: a donor's frame goes
// through the real HTTP path (snapshot → DRWNCKPT frame → POST /state →
// acceptor), its cache lands in the inheritor's DC, and the inheritor's
// controller state is byte-identical before and after — the donor's learned
// state stays behind. And the dual: a corrupt frame must be rejected by the
// CRC/validation layers without mutating the inheritor at all.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/diskcache"
	"darwin/internal/persist"
	"darwin/internal/server"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

var (
	handoffModelOnce sync.Once
	handoffModelVal  *core.Model
	handoffModelErr  error
)

// handoffModel trains one small model shared by every seed (training
// dominates the test's cost; controllers over it are cheap).
func handoffModel(t testing.TB) *core.Model {
	t.Helper()
	handoffModelOnce.Do(func() {
		var traces []*trace.Trace
		for seed := int64(0); seed < 4; seed++ {
			tr, err := tracegen.ImageDownloadMix(50, 8000, 100+seed)
			if err != nil {
				handoffModelErr = err
				return
			}
			traces = append(traces, tr)
		}
		ds, err := core.BuildDataset(traces, core.DatasetConfig{
			Experts: cache.Grid([]int{1, 3}, []int64{2 << 10, 20 << 10}),
			Eval:    cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20, WarmupFrac: 0.1},
		})
		if err != nil {
			handoffModelErr = err
			return
		}
		// A generous θ makes every cluster's expert set multi-member, so the
		// identify phase always instantiates the bandit this test round-trips.
		handoffModelVal, handoffModelErr = core.Train(ds, core.TrainConfig{NumClusters: 2, ThetaPct: 50, Seed: 1})
	})
	if handoffModelErr != nil {
		t.Fatal(handoffModelErr)
	}
	return handoffModelVal
}

func handoffOnlineCfg() core.OnlineConfig {
	return core.OnlineConfig{
		Epoch:           600,
		Warmup:          100,
		Round:           50,
		StabilityRounds: 8,
	}
}

func newHandoffController(t testing.TB, m *core.Model) (*core.Controller, *cache.Sharded) {
	t.Helper()
	eng, err := cache.NewSharded(cache.Config{HOCBytes: 256 << 10, DCBytes: 32 << 20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewController(m, eng, handoffOnlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, eng
}

// TestStateHandoffRoundTrip drives a donor controller on seeded traffic,
// ships its frame through the inheritor's real /state HTTP endpoint, and
// asserts the inheritor merged the donor's cache and kept its own controller
// state byte for byte, though the frame carries the donor's posteriors. Then
// it corrupts the same frame one byte at a time and asserts every corrupt
// POST is a 400 that mutates nothing.
func TestStateHandoffRoundTrip(t *testing.T) {
	model := handoffModel(t)
	const seeds = 25
	banditsSeen := 0
	for seed := int64(1); seed <= seeds; seed++ {
		// Donor: a controller caught mid-identify (warmup 100 + a few 50-req
		// rounds), so the checkpoint carries live bandit posteriors.
		donorCtrl, donorEng := newHandoffController(t, model)
		tr, err := tracegen.ImageDownloadMix(50, 250, 1000+seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range tr.Requests {
			donorCtrl.Serve(req)
		}
		if donorCtrl.CheckpointState().Bandit != nil {
			banditsSeen++
		}
		frame, err := core.EncodeCheckpointFrame(snapshot(donorEng, donorCtrl))
		if err != nil {
			t.Fatal(err)
		}

		// Inheritor: a fresh proxy serving the real /state endpoint.
		inhCtrl, inhEng := newHandoffController(t, model)
		proxy := server.NewOverloadProxy(inhCtrl, "http://127.0.0.1:9", 0, server.Resilience{}, server.Overload{})
		proxy.EnableStateHandoff(handoffAcceptor(inhEng))
		srv := httptest.NewServer(http.HandlerFunc(proxy.ServeState))

		ctrlBefore := controllerJSON(t, inhCtrl)
		resp, err := http.Post(srv.URL+"/state", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("seed %d: handoff POST status %d, want 204", seed, resp.StatusCode)
		}
		if got := controllerJSON(t, inhCtrl); !bytes.Equal(got, ctrlBefore) {
			t.Fatalf("seed %d: the handoff changed the inheritor's controller state:\n%s\n%s", seed, ctrlBefore, got)
		}
		if missing := notResident(inhEng, donorEng.State()); len(missing) > 0 {
			t.Fatalf("seed %d: donor residents %v are not resident at the inheritor", seed, missing)
		}

		// Corruption: flipping any byte must yield a 400 and zero mutation.
		before := inhCtrl.CheckpointState()
		engBefore := inhEng.State()
		for _, pos := range []int{0, len(frame) / 3, len(frame) / 2, len(frame) - 1} {
			bad := append([]byte(nil), frame...)
			bad[pos] ^= 0x41
			resp, err := http.Post(srv.URL+"/state", "application/octet-stream", bytes.NewReader(bad))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("seed %d: corrupt frame (byte %d) got status %d, want 400 (%s)", seed, pos, resp.StatusCode, body)
			}
		}
		if !reflect.DeepEqual(inhCtrl.CheckpointState(), before) {
			t.Fatalf("seed %d: corrupt frames mutated the inheritor's controller", seed)
		}
		engAfter := inhEng.State()
		if !reflect.DeepEqual(engAfter, engBefore) {
			t.Fatalf("seed %d: corrupt frames mutated the inheritor's engine", seed)
		}
		if st := proxy.Stats(); st.StateMerges != 1 || st.StateRejects != 4 {
			t.Fatalf("seed %d: merges=%d rejects=%d, want 1/4", seed, st.StateMerges, st.StateRejects)
		}
		srv.Close()
	}
	if banditsSeen == 0 {
		t.Fatal("no seed produced bandit posteriors; no frame carried learned state for the inheritor to leave behind")
	}
}

// TestHandoffChecksOnlyTheLevelsItMerges: the /state acceptor reads a
// frame's resident levels and nothing else of it. A frame whose controller
// part, tracker or metrics a restore would refuse, even one of the wrong
// JSON type, is answered 204:
// the heir holds every donor resident and its controller state is byte for
// byte what it was. A frame with a malformed level — a negative size, an id
// twice in one level, a null shard, no engine — is answered 400 and merges
// nothing, though the bad level is the last one merged.
func TestHandoffChecksOnlyTheLevelsItMerges(t *testing.T) {
	model := handoffModel(t)
	donorCtrl, donorEng := newHandoffController(t, model)
	tr, err := tracegen.ImageDownloadMix(50, 1200, 1001)
	if err != nil {
		t.Fatal(err)
	}
	donorCtrl.Play(&trace.Trace{Requests: tr.Requests[:800]})
	lastShard := func(ck *parts) *cache.HierarchyState { return ck.eng.Shards[len(ck.eng.Shards)-1] }
	if sh := lastShard(partsOf(donorEng, donorCtrl)); len(sh.HOC) < 2 || len(sh.DC) < 2 {
		t.Fatalf("the donor's last shard holds %d HOC and %d DC objects; the test needs two of each", len(sh.HOC), len(sh.DC))
	}
	for _, tc := range []struct {
		name string
		code int
		edit func(ck *parts)
	}{
		{"controller-learning-time", http.StatusNoContent, func(ck *parts) { ck.ctrl.LearningNS = -1 }},
		{"controller-wrong-type", http.StatusNoContent, func(ck *parts) { ck.ctrl, ck.rawCtrl = nil, json.RawMessage(`"garbage"`) }},
		{"tracker-last-seen", http.StatusNoContent, func(ck *parts) { ck.eng.Shards[0].Tracker.LastSeen[0] = -1 }},
		{"metrics-misses", http.StatusNoContent, func(ck *parts) { ck.eng.Shards[0].Metrics.Misses++ }},
		{"tracker-wrong-type", http.StatusNoContent, func(ck *parts) { ck.wrongType = "tracker" }},
		{"metrics-wrong-type", http.StatusNoContent, func(ck *parts) { ck.wrongType = "metrics" }},
		{"negative-size", http.StatusBadRequest, func(ck *parts) { hoc := lastShard(ck).HOC; hoc[len(hoc)-1].Size = -1 }},
		{"duplicate-id", http.StatusBadRequest, func(ck *parts) { hoc := lastShard(ck).HOC; hoc[len(hoc)-1] = hoc[0] }},
		{"null-shard", http.StatusBadRequest, func(ck *parts) { ck.eng.Shards[len(ck.eng.Shards)-1] = nil }},
		{"no-engine", http.StatusBadRequest, func(ck *parts) { ck.eng = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := partsOf(donorEng, donorCtrl)
			tc.edit(ck)
			frame := ck.frame(t)
			ctrl, eng := newHandoffController(t, model)
			ctrl.Play(&trace.Trace{Requests: tr.Requests[:40]})
			proxy := server.NewOverloadProxy(ctrl, "http://127.0.0.1:9", 0, server.Resilience{}, server.Overload{})
			proxy.EnableStateHandoff(handoffAcceptor(eng))
			blobBefore := partsOf(eng, ctrl).frame(t)
			ctrlBefore := controllerJSON(t, ctrl)

			w := httptest.NewRecorder()
			proxy.ServeState(w, httptest.NewRequest(http.MethodPost, "/state", bytes.NewReader(frame)))
			if w.Code != tc.code {
				t.Fatalf("POST /state answered %d (%s), want %d", w.Code, w.Body, tc.code)
			}
			if got := controllerJSON(t, ctrl); !bytes.Equal(got, ctrlBefore) {
				t.Fatalf("the handoff changed the heir's controller state:\n%s\n%s", ctrlBefore, got)
			}
			if tc.code != http.StatusNoContent {
				if blobAfter := partsOf(eng, ctrl).frame(t); !bytes.Equal(blobAfter, blobBefore) {
					t.Fatal("a refused frame changed the heir")
				}
				return
			}
			if missing := notResident(eng, donorEng.State()); len(missing) > 0 {
				t.Fatalf("donor residents %v are not resident at the heir", missing)
			}
		})
	}
}

// parts is a checkpoint's engine and controller parts, decoded for a test to
// edit. rawCtrl is a controller part that is not a controller state; it
// stands in for ctrl when ctrl is nil. wrongType names a field of eng's
// shard 0 that frame writes as the string "garbage".
type parts struct {
	eng       *cache.ShardedState
	ctrl      *core.ControllerState
	rawCtrl   json.RawMessage
	wrongType string
}

// partsOf is the node snapshot of eng and ctrl.
func partsOf(eng *cache.Sharded, ctrl *core.Controller) *parts {
	es, cs := snapshot(eng, ctrl)
	return &parts{eng: es, ctrl: cs}
}

// decodeParts decodes a checkpoint frame's parts.
func decodeParts(t testing.TB, frame []byte) *parts {
	t.Helper()
	ck, err := core.DecodeCheckpointFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	p := &parts{rawCtrl: ck.Controller}
	if p.eng, err = ck.EngineState(); err != nil {
		t.Fatal(err)
	}
	if json.Unmarshal(ck.Controller, &p.ctrl) != nil {
		p.ctrl = nil
	}
	return p
}

// frame encodes the parts as a checkpoint frame with a valid CRC.
func (p *parts) frame(t testing.TB) []byte {
	t.Helper()
	ck := struct {
		Engine     any `json:"engine,omitempty"`
		Controller any `json:"controller,omitempty"`
	}{}
	switch {
	case p.wrongType != "":
		blob, err := json.Marshal(p.eng)
		var es struct {
			Shards []map[string]json.RawMessage `json:"shards"`
		}
		if err == nil {
			err = json.Unmarshal(blob, &es)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(es.Shards) > 0 && es.Shards[0] != nil { // a mutate edit may cut every shard
			es.Shards[0][p.wrongType] = json.RawMessage(`"garbage"`)
		}
		ck.Engine = es
	case p.eng != nil:
		ck.Engine = p.eng
	}
	switch {
	case p.ctrl != nil:
		ck.Controller = p.ctrl
	case p.rawCtrl != nil:
		ck.Controller = p.rawCtrl
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := persist.EncodeFrame(&buf, core.CheckpointMagic, core.CheckpointFormatVersion, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// controllerJSON is ctrl's snapshot as JSON: two calls return the same bytes
// exactly when the controller's state did not change between them.
func controllerJSON(t testing.TB, ctrl *core.Controller) []byte {
	t.Helper()
	blob, err := json.Marshal(ctrl.CheckpointState())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// notResident lists the ids of the donor snapshot's residents, DC and HOC,
// that eng holds in neither level.
func notResident(eng *cache.Sharded, donor *cache.ShardedState) []uint64 {
	var missing []uint64
	for _, sh := range donor.Shards {
		for _, level := range [][]cache.ResidentObject{sh.DC, sh.HOC} {
			for _, obj := range level {
				if r := eng.Lookup(obj.ID); r != cache.HOCHit && r != cache.DCHit {
					missing = append(missing, obj.ID)
				}
			}
		}
	}
	return missing
}

// TestDrainPushCarriesNoModel: the frame a durable darwin-mode node's Close
// POSTs to its ring successor carries the engine and the controller state
// (the successor merges the engine's residents) and no model: the successor
// runs its own. It is byte for byte the final checkpoint file Close writes
// next, since both are one snapshot of the quiesced node. /state answers a
// GET with 405.
func TestDrainPushCarriesNoModel(t *testing.T) {
	model := handoffModel(t)
	heirSrv := httptest.NewUnstartedServer(nil)
	defer heirSrv.Close()
	donorSrv := httptest.NewUnstartedServer(nil)
	defer donorSrv.Close()
	urls := []string{"http://" + donorSrv.Listener.Addr().String(), "http://" + heirSrv.Listener.Addr().String()}
	cfg := Config{
		Model:    model,
		Online:   handoffOnlineCfg(),
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
	pushed := make(chan []byte, 1)
	heirSrv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/state" {
			body, _ := io.ReadAll(r.Body)
			pushed <- body
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		heir.Handler().ServeHTTP(w, r)
	})
	heirSrv.Start()

	cfg.Peer.Self = urls[0]
	cfg.Store = diskcache.Config{Dir: t.TempDir()}
	donor, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !donor.dur.recovered.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("recovery never finished")
		}
	}
	donorSrv.Config.Handler = donor.Handler()
	donorSrv.Start()
	tr, err := tracegen.ImageDownloadMix(50, 250, 1001)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range tr.Requests {
		fetch(t, urls[0], req.ID, req.Size)
	}
	resp, err := http.Get(urls[0] + "/state")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /state answered %d, want 405", resp.StatusCode)
	}
	want := donor.ctrl.CheckpointState()

	donor.Close(context.Background())
	frame := <-pushed
	if ck := decodeParts(t, frame); ck.eng == nil || !reflect.DeepEqual(ck.ctrl, want) {
		t.Fatalf("pushed frame: engine %v, controller %+v; want the engine and %+v", ck.eng != nil, ck.ctrl, want)
	}
	if keys := payloadKeys(t, frame); !reflect.DeepEqual(keys, []string{"controller", "engine"}) {
		t.Fatalf("pushed frame carries %v, want the controller and the engine only", keys)
	}
	file, err := os.ReadFile(filepath.Join(cfg.Store.Dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, frame) {
		t.Fatalf("the checkpoint file (%d B) differs from the pushed frame (%d B)", len(file), len(frame))
	}
	if st := heir.Proxy.Stats(); st.StateMerges != 1 || st.StateRejects != 0 {
		t.Fatalf("successor merged %d frames and rejected %d, want 1 and 0", st.StateMerges, st.StateRejects)
	}
	t.Logf("pushed frame and checkpoint file: %d B", len(frame))
}

// payloadKeys lists, sorted, the top-level keys of a checkpoint frame's
// JSON payload.
func payloadKeys(t *testing.T, frame []byte) []string {
	t.Helper()
	payload, err := persist.DecodeFrame(bytes.NewReader(frame), core.CheckpointMagic, core.CheckpointFormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// modelPayload is m as a model file's JSON payload: what a checkpoint's
// "model" key held while checkpoints carried the model.
func modelPayload(t *testing.T, m *core.Model) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	payload, err := persist.DecodeFrame(&buf, core.ModelMagic, core.ModelFormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestKindTaggedFrameRestores: a frame as it was written before the tracker
// lost its kind tag — each shard's tracker tagged "exact", and the model
// inside, as every checkpoint file and darwin-mode /state body then carried
// it — still decodes, its model ignored, and restores an engine and a
// controller equal to its source.
func TestKindTaggedFrameRestores(t *testing.T) {
	model := handoffModel(t)
	ctrl, eng := newHandoffController(t, model)
	tr, err := tracegen.ImageDownloadMix(50, 250, 1001)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range tr.Requests {
		ctrl.Serve(req)
	}
	frame, err := core.EncodeCheckpointFrame(snapshot(eng, ctrl))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := persist.DecodeFrame(bytes.NewReader(frame), core.CheckpointMagic, core.CheckpointFormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber() // ids above 2^53 must survive the edit
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, sh := range doc["engine"].(map[string]any)["shards"].([]any) {
		sh.(map[string]any)["tracker"].(map[string]any)["kind"] = "exact"
	}
	doc["model"] = modelPayload(t, model)
	tagged, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(tagged), `"kind":"exact"`); n != eng.Shards() {
		t.Fatalf("%d tagged trackers in a %d-shard frame", n, eng.Shards())
	}
	var old bytes.Buffer
	if err := persist.EncodeFrame(&old, core.CheckpointMagic, core.CheckpointFormatVersion, tagged); err != nil {
		t.Fatal(err)
	}

	ck, err := core.DecodeCheckpointFrame(old.Bytes())
	if err != nil {
		t.Fatalf("a kind-tagged frame does not decode: %v", err)
	}
	restoredCtrl, restoredEng := newHandoffController(t, model)
	es, err := ck.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	if err := restoredEng.RestoreState(es); err != nil {
		t.Fatal(err)
	}
	if err := restoredCtrl.RestoreState(ck.Controller); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restoredEng.State(), eng.State()) {
		t.Fatal("the restored engine differs from the source")
	}
	if got, want := restoredCtrl.CheckpointState(), ctrl.CheckpointState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the restored controller differs from the source:\n got %+v\nwant %+v", got, want)
	}
}

// otherModel trains a model of handoffModel's shape — the same grid, two
// clusters — on other traces (30 % Image, other seeds) at θ = 5 %: both of
// its clusters' expert set is [1 3], where handoffModel's is [0 1 2 3].
func otherModel(t testing.TB) *core.Model {
	t.Helper()
	var traces []*trace.Trace
	for seed := int64(0); seed < 4; seed++ {
		tr, err := tracegen.ImageDownloadMix(30, 8000, 200+seed)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	ds, err := core.BuildDataset(traces, core.DatasetConfig{
		Experts: cache.Grid([]int{1, 3}, []int64{2 << 10, 20 << 10}),
		Eval:    cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20, WarmupFrac: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(ds, core.TrainConfig{NumClusters: 2, ThetaPct: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStateFromAnotherModelRefused: controller state learned under one model
// does not fit another of the same shape. A state taken mid-identification
// over handoffModel is refused by a node that restarts with otherModel:
// recovery restores the engine, logs both expert sets and re-warms the
// controller. A node running otherModel that is handed the state's frame
// keeps its own controller state, as every inheritor does, and still merges
// the donor's cache.
func TestStateFromAnotherModelRefused(t *testing.T) {
	donorCtrl, donorEng := newHandoffController(t, handoffModel(t))
	tr, err := tracegen.ImageDownloadMix(50, 2000, 77)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range tr.Requests {
		if donorCtrl.Phase() == core.PhaseIdentify && donorCtrl.CheckpointState().RoundReqs > 0 {
			break
		}
		donorCtrl.Serve(req)
	}
	st := donorCtrl.CheckpointState()
	other := otherModel(t)
	if st.Phase != "identify" || !reflect.DeepEqual(st.Set, []int{0, 1, 2, 3}) ||
		!reflect.DeepEqual(other.ExpertSets[st.ClusterID], []int{1, 3}) {
		t.Fatalf("donor in %s with cluster %d set %v, the other model's set %v: the test needs an identify state whose set the other model does not give",
			st.Phase, st.ClusterID, st.Set, other.ExpertSets[st.ClusterID])
	}
	frame, err := core.EncodeCheckpointFrame(snapshot(donorEng, donorCtrl))
	if err != nil {
		t.Fatal(err)
	}
	bothSets := "expert set [0 1 2 3] is not the model's [1 3]"
	fresh := func(ctrl *core.Controller) bool {
		got := ctrl.CheckpointState()
		return got.Phase == "warmup" && got.Epoch == 0 && got.EpochReqs == 0 && got.Bandit == nil
	}

	cfg := Config{
		Model:    other,
		Online:   handoffOnlineCfg(),
		HOCBytes: 256 << 10,
		DCBytes:  32 << 20,
		Shards:   2,
		Store:    diskcache.Config{Dir: t.TempDir()},
		Origin:   testOrigin(t),
	}
	if err := os.WriteFile(filepath.Join(cfg.Store.Dir, checkpointFile), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.dur.store.Close() })
	logged := stderrOf(t, n.dur.recover)
	if !strings.Contains(logged, "controller state not restored") || !strings.Contains(logged, bothSets) ||
		strings.Contains(logged, "engine state not restored") {
		t.Fatalf("recovery logged %q, want the engine restored and the controller refused, naming both sets", logged)
	}
	if !fresh(n.ctrl) {
		t.Fatalf("the restarted controller is %+v, want a fresh warm-up", n.ctrl.CheckpointState())
	}
	if got, want := n.eng.Metrics(), donorEng.Metrics(); got != want {
		t.Fatalf("the restarted engine counts %+v, the checkpoint %+v", got, want)
	}

	inhCtrl, inhEng := newHandoffController(t, other)
	if err := handoffAcceptor(inhEng)(frame); err != nil {
		t.Fatalf("the handoff was refused whole: %v", err)
	}
	if !fresh(inhCtrl) {
		t.Fatalf("the inheritor's controller is %+v, want its own fresh warm-up", inhCtrl.CheckpointState())
	}
	if dcLen(donorEng) == 0 {
		t.Fatal("the donor's DC is empty; the test would not exercise the merge")
	}
	for _, sh := range donorEng.State().Shards {
		for _, obj := range sh.DC {
			if r := inhEng.Lookup(obj.ID); r != cache.DCHit {
				t.Fatalf("the donor's DC object %d is %v at the inheritor, want merged", obj.ID, r)
			}
		}
	}
}

// mutate makes one structure-aware edit to the value v points at, as
// internal/core's FuzzCheckpointRuns does: it walks every slice and number
// reachable through exported fields and pointers, and op picks the edit —
// cut slice at to val elements, extend it by a copy of its last element, or
// add val to number at.
func mutate(v any, op uint8, at uint16, val int16) {
	var slices, nums []reflect.Value
	var walk func(x reflect.Value)
	walk = func(x reflect.Value) {
		switch x.Kind() {
		case reflect.Pointer:
			if !x.IsNil() {
				walk(x.Elem())
			}
		case reflect.Struct:
			for i := 0; i < x.NumField(); i++ {
				if x.Type().Field(i).IsExported() {
					walk(x.Field(i))
				}
			}
		case reflect.Slice:
			slices = append(slices, x)
			for i := 0; i < x.Len() && x.Type().Elem().Kind() != reflect.Uint8; i++ {
				walk(x.Index(i))
			}
		case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
			nums = append(nums, x)
		}
	}
	walk(reflect.ValueOf(v))
	switch {
	case op%3 == 0 && len(slices) > 0:
		s := slices[int(at)%len(slices)]
		s.SetLen(int(uint16(val)) % (s.Len() + 1))
	case op%3 == 1 && len(slices) > 0:
		s := slices[int(at)%len(slices)]
		last := reflect.New(s.Type().Elem()).Elem()
		if s.Len() > 0 {
			last = s.Index(s.Len() - 1)
		}
		s.Set(reflect.Append(s, last))
	case len(nums) > 0:
		switch n := nums[int(at)%len(nums)]; n.Kind() {
		case reflect.Uint64:
			n.SetUint(n.Uint() + uint64(int64(val)))
		case reflect.Float64:
			n.SetFloat(n.Float() + float64(val))
		default:
			n.SetInt(n.Int() + int64(val))
		}
	}
}

// FuzzHandoffAccept feeds the /state acceptor frames cut from a donor
// caught mid-identification, each with one mutate edit and a valid CRC
// (frames the CRC rejects say nothing about the acceptor). Besides the
// donor's own frame, the seeds carry a garbage controller part, a bad
// tracker, a null shard, a controller part of the wrong JSON type and a
// tracker of the wrong JSON type; only the null shard is refused unedited.
// No frame
// changes the inheritor's controller state by a byte. A refused frame must
// leave its engine byte-identical too; an accepted one must land every
// donor resident in the inheritor's cache and leave an inheritor that plays
// on, counts every request once, and snapshots a frame that restores.
func FuzzHandoffAccept(f *testing.F) {
	model := handoffModel(f)
	donorCtrl, donorEng := newHandoffController(f, model)
	tr, err := tracegen.ImageDownloadMix(50, 1200, 1001)
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range tr.Requests[:250] {
		donorCtrl.Serve(req)
	}
	if donorCtrl.Phase() != core.PhaseIdentify {
		f.Fatalf("the donor is in %v, want identify", donorCtrl.Phase())
	}
	seeds := []struct {
		refuse bool // the acceptor refuses the unedited frame
		edit   func(ck *parts)
	}{
		{false, func(*parts) {}},
		{false, func(ck *parts) {
			ck.ctrl = &core.ControllerState{Phase: "?", Epoch: -3, EpochReqs: -1, ClusterID: 1 << 20,
				Set: []int{-1}, Extended: []float64{1}, CurArm: 7, LearningNS: -1}
		}},
		{false, func(ck *parts) { ck.eng.Shards[0].Tracker.LastSeen[0] = -1 }},
		{true, func(ck *parts) { ck.eng.Shards[1] = nil }},
		{false, func(ck *parts) { ck.ctrl, ck.rawCtrl = nil, json.RawMessage(`"garbage"`) }},
		{false, func(ck *parts) { ck.wrongType = "tracker" }},
	}
	for i := range 4 {
		f.Add(uint8(i), uint8(2), uint16(0), int16(0))
	}
	play := &trace.Trace{Requests: tr.Requests[250:]}
	f.Add(uint8(0), uint8(0), uint16(3), int16(1))
	f.Add(uint8(0), uint8(1), uint16(30), int16(0))
	f.Add(uint8(0), uint8(2), uint16(12), int16(-7))
	// Added last, so the seeds above keep their corpus names.
	f.Add(uint8(4), uint8(2), uint16(0), int16(0))
	f.Add(uint8(5), uint8(2), uint16(0), int16(0))
	f.Fuzz(func(t *testing.T, seed, op uint8, at uint16, val int16) {
		sd := int(seed) % len(seeds)
		ck := partsOf(donorEng, donorCtrl)
		seeds[sd].edit(ck)
		mutate(&struct {
			*core.ControllerState
			*cache.ShardedState
		}{ck.ctrl, ck.eng}, op, at, val)
		frame := ck.frame(t)
		ctrl, eng := newHandoffController(t, model)
		ctrl.Play(&trace.Trace{Requests: tr.Requests[:40]}) // behind the donor
		state := func() []byte { return partsOf(eng, ctrl).frame(t) }
		before, ctrlBefore := state(), controllerJSON(t, ctrl)
		err = handoffAcceptor(eng)(frame)
		if got := controllerJSON(t, ctrl); !bytes.Equal(got, ctrlBefore) {
			t.Fatalf("the handoff (error %v) changed the inheritor's controller state:\n%s\n%s", err, ctrlBefore, got)
		}
		if unedited := op%3 == 2 && val == 0; unedited && (err != nil) != seeds[sd].refuse {
			t.Fatalf("unedited seed %d: acceptor error %v, want one: %v", sd, err, seeds[sd].refuse)
		}
		if err != nil {
			if !bytes.Equal(state(), before) {
				t.Fatalf("a refused frame (%v) changed the inheritor", err)
			}
			return
		}
		if missing := notResident(eng, ck.eng); len(missing) > 0 {
			t.Fatalf("donor residents %v are not resident at the inheritor", missing)
		}
		ctrl.Play(play)
		if m := eng.Metrics(); m.HOCHits+m.DCHits+m.Misses != m.Requests {
			t.Fatalf("after play: %d hits and misses for %d requests", m.HOCHits+m.DCHits+m.Misses, m.Requests)
		}
		again, err := core.EncodeCheckpointFrame(snapshot(eng, ctrl))
		if err != nil {
			t.Fatal(err)
		}
		own, err := core.DecodeCheckpointFrame(again)
		if err != nil {
			t.Fatalf("the inheritor's own frame does not decode: %v", err)
		}
		ctrl, eng = newHandoffController(t, model)
		es, err := own.EngineState()
		if err == nil {
			err = eng.RestoreState(es)
		}
		if err != nil {
			t.Fatalf("the inheritor's own engine state does not restore: %v", err)
		}
		if err := ctrl.RestoreState(own.Controller); err != nil {
			t.Fatalf("the inheritor's own controller state does not restore: %v", err)
		}
	})
}
