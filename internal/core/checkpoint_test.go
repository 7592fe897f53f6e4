package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/persist"
	"darwin/internal/trace"
)

// newShardedController builds the proxy-shaped stack: controller over a
// single-shard Sharded engine, so engine snapshots use ShardedState.
func newShardedController(t *testing.T, m *Model) (*Controller, *cache.Sharded) {
	t.Helper()
	ec := testEval()
	eng, err := cache.NewSharded(cache.Config{HOCBytes: ec.HOCBytes, DCBytes: ec.DCBytes}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(m, eng, onlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	return c, eng
}

// resume builds a fresh controller+engine over m from the checkpoint, as a
// restarted process would.
func resume(t *testing.T, m *Model, ck *Checkpoint) (*Controller, *cache.Sharded) {
	t.Helper()
	ec := testEval()
	eng, err := cache.NewSharded(cache.Config{HOCBytes: ec.HOCBytes, DCBytes: ec.DCBytes}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(m, eng, onlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	es, err := ck.EngineState()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RestoreState(es); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreState(ck.Controller); err != nil {
		t.Fatal(err)
	}
	return c, eng
}

// checkpointOf is the checkpoint frame of c over eng, as a reader decodes it.
func checkpointOf(t *testing.T, c *Controller, eng *cache.Sharded) *Checkpoint {
	t.Helper()
	frame, err := EncodeCheckpointFrame(eng.State(), c.CheckpointState())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpointFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// framed wraps a checkpoint payload in a frame with a valid CRC.
func framed(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.EncodeFrame(&buf, CheckpointMagic, CheckpointFormatVersion, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// controllerPart is st's JSON, a checkpoint's controller part.
func controllerPart(t testing.TB, st *ControllerState) json.RawMessage {
	t.Helper()
	part, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// TestCheckpointResumeMidIdentify is the core crash-recovery property: a
// controller checkpointed mid-identification and resumed in a fresh process
// image makes the same decisions as the original from that point on.
func TestCheckpointResumeMidIdentify(t *testing.T) {
	m := trainedModel(t)
	c, eng := newShardedController(t, m)
	tr := testTraces(t)[3]

	// Drive past warm-up into identification (or exploit for singleton sets).
	i := 0
	for ; i < tr.Len() && c.Phase() == PhaseWarmup; i++ {
		c.Serve(tr.Requests[i])
	}
	if c.Phase() == PhaseIdentify {
		// Land mid-round for the strictest resume test.
		for n := 0; n < onlineCfg().Round/2; n++ {
			c.Serve(tr.Requests[i])
			i++
		}
	}

	r, rEng := resume(t, m, checkpointOf(t, c, eng))

	if r.Phase() != c.Phase() {
		t.Fatalf("resumed phase %v, want %v", r.Phase(), c.Phase())
	}
	if r.Metrics() != c.Metrics() {
		t.Fatalf("resumed metrics %+v, want %+v", r.Metrics(), c.Metrics())
	}
	// Both must now evolve in lockstep through the rest of the trace:
	// identical serve results, phase transitions, and expert deployments.
	for ; i < tr.Len(); i++ {
		a := c.Serve(tr.Requests[i])
		b := r.Serve(tr.Requests[i])
		if a != b {
			t.Fatalf("request %d: results diverge (%v vs %v)", i, a, b)
		}
		if eng.Expert() != rEng.Expert() {
			t.Fatalf("request %d: deployed experts diverge", i)
		}
	}
	if c.Phase() != r.Phase() || c.Metrics() != r.Metrics() {
		t.Fatalf("end state diverges: %v/%v, metrics %+v vs %+v",
			c.Phase(), r.Phase(), c.Metrics(), r.Metrics())
	}
	da, db := c.Diags(), r.Diags()
	if len(da) != len(db) {
		t.Fatalf("diag counts diverge: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("diag %d diverges: %+v vs %+v", i, da[i], db[i])
		}
	}
}

// TestCheckpointResumeMidExploit: a position counter that froze at exploit
// entry would pass the identify and warm-up tests. A snapshot taken k requests
// into exploit must carry the exact position, and the resumed controller must
// roll the epoch on the same request as the uninterrupted one.
func TestCheckpointResumeMidExploit(t *testing.T) {
	m := trainedModel(t)
	c, eng := newShardedController(t, m)
	traces := testTraces(t)
	reqs := append(append([]trace.Request(nil), traces[3].Requests...), traces[4].Requests...)
	cfg := onlineCfg()

	i := 0
	for ; c.Phase() != PhaseExploit; i++ {
		if i == cfg.Epoch-200 {
			t.Fatal("first epoch never reached exploit with room to spare")
		}
		c.Serve(reqs[i])
	}
	for k := 0; k < 137; k++ {
		c.Serve(reqs[i])
		i++
	}

	if st := c.CheckpointState(); st.Phase != "exploit" || st.EpochReqs != i {
		t.Fatalf("snapshot after %d serves says %s at %d", i, st.Phase, st.EpochReqs)
	}
	r, _ := resume(t, m, checkpointOf(t, c, eng))
	if got := r.CheckpointState(); got.Phase != "exploit" || got.EpochReqs != i {
		t.Fatalf("resumed controller is in %s at %d, want exploit at %d", got.Phase, got.EpochReqs, i)
	}

	rolledAt := -1
	for ; i < len(reqs); i++ {
		if a, b := c.Serve(reqs[i]), r.Serve(reqs[i]); a != b {
			t.Fatalf("request %d: results diverge (%v vs %v)", i, a, b)
		}
		sa, sb := c.CheckpointState(), r.CheckpointState()
		if sa.Phase != sb.Phase || sa.Epoch != sb.Epoch || sa.EpochReqs != sb.EpochReqs {
			t.Fatalf("request %d: positions diverge: %s %d/%d vs %s %d/%d", i,
				sa.Phase, sa.Epoch, sa.EpochReqs, sb.Phase, sb.Epoch, sb.EpochReqs)
		}
		if rolledAt < 0 && sb.Epoch == 1 {
			rolledAt = i
		}
	}
	if rolledAt != cfg.Epoch-1 {
		t.Fatalf("epoch rolled on request %d, want %d", rolledAt, cfg.Epoch-1)
	}
	if da, db := c.Diags(), r.Diags(); !reflect.DeepEqual(da, db) || len(da) < 2 {
		t.Fatalf("diags diverge or second epoch undecided:\n%+v\n%+v", da, db)
	}
}

// TestCheckpointResumeWarmup: a warm-up snapshot re-enters warm-up fresh but
// keeps the epoch counter and cache contents.
func TestCheckpointResumeWarmup(t *testing.T) {
	m := trainedModel(t)
	c, eng := newShardedController(t, m)
	tr := testTraces(t)[0]
	for i := 0; i < 500; i++ { // stay inside warm-up (1500)
		c.Serve(tr.Requests[i])
	}
	r, _ := resume(t, m, checkpointOf(t, c, eng))
	if r.Phase() != PhaseWarmup {
		t.Fatalf("phase = %v, want warmup", r.Phase())
	}
	if r.Metrics() != c.Metrics() {
		t.Fatal("cache contents not carried through warm-up restore")
	}
	// The restored controller re-runs the full warm-up before identifying.
	cfg := onlineCfg()
	for i := 0; i < cfg.Warmup-1; i++ {
		r.Serve(tr.Requests[i%tr.Len()])
		if r.Phase() != PhaseWarmup {
			t.Fatalf("left warmup after %d of %d requests", i+1, cfg.Warmup)
		}
	}
}

// TestControllerRestoreRejectsInvalid: RestoreState refuses every malformed
// controller snapshot, whether its shape is wrong or it does not fit the
// model or config, and leaves the controller unchanged.
func TestControllerRestoreRejectsInvalid(t *testing.T) {
	m := trainedModel(t)
	c, _ := newShardedController(t, m)
	tr := testTraces(t)[3]
	i := 0
	for ; c.Phase() == PhaseWarmup; i++ {
		c.Serve(tr.Requests[i])
	}
	good := c.CheckpointState()
	identify := c.Phase() == PhaseIdentify

	cases := []struct {
		name string
		skip bool
		mut  func(st *ControllerState)
	}{
		{"nil", false, nil},
		{"bad-phase", false, func(st *ControllerState) { st.Phase = "transcend" }},
		{"negative-epoch", false, func(st *ControllerState) { st.Epoch = -1 }},
		{"epoch-overrun", false, func(st *ControllerState) { st.EpochReqs = onlineCfg().Epoch }},
		{"bad-expert-ref", len(good.Set) == 0, func(st *ControllerState) { st.Set[0] = 999 }},
		{"bad-cluster", len(good.Set) == 0, func(st *ControllerState) { st.ClusterID = 999 }},
		{"identify-no-bandit", !identify, func(st *ControllerState) { st.Bandit = nil }},
		{"identify-bad-arm", !identify, func(st *ControllerState) { st.CurArm = 99 }},
		{"identify-bandit-mismatch", !identify, func(st *ControllerState) { st.Bandit.Plays = st.Bandit.Plays[:1] }},
		{"identify-round-overrun", !identify, func(st *ControllerState) { st.RoundReqs = onlineCfg().Round }},
		{"identify-short-features", !identify, func(st *ControllerState) { st.Extended = st.Extended[:3] }},
		{"profile-mismatch", false, func(st *ControllerState) { st.Prof.Sizes = append(st.Prof.Sizes, 1) }},
		{"round-start-negative", false, func(st *ControllerState) { st.RoundStart.MissBytes = -1 }},
		{"round-start-unbalanced", false, func(st *ControllerState) { st.RoundStart.HOCHits++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip {
				t.Skip("snapshot phase does not exercise this case")
			}
			before := controllerPart(t, c.CheckpointState())
			var bad json.RawMessage
			if tc.mut != nil {
				st := decodeController(t, good)
				tc.mut(st)
				bad = controllerPart(t, st)
			}
			if err := c.RestoreState(bad); err == nil {
				t.Fatal("invalid controller state accepted")
			}
			if !bytes.Equal(controllerPart(t, c.CheckpointState()), before) {
				t.Fatal("failed restore mutated the controller")
			}
		})
	}
}

// decodeController deep-copies st through its JSON.
func decodeController(t *testing.T, st *ControllerState) *ControllerState {
	t.Helper()
	var out ControllerState
	if err := json.Unmarshal(controllerPart(t, st), &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestV1CheckpointRejected: a version-1 checkpoint frame — its engine state
// held a Bloom filter image and no missed marks — is refused with
// persist.ErrVersion (internal/node tests the file).
func TestV1CheckpointRejected(t *testing.T) {
	m := trainedModel(t)
	c, eng := newShardedController(t, m)
	tr := testTraces(t)[1]
	for i := 0; i < 1000; i++ {
		c.Serve(tr.Requests[i])
	}
	frame, err := EncodeCheckpointFrame(eng.State(), c.CheckpointState())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := persist.DecodeFrame(bytes.NewReader(frame), CheckpointMagic, CheckpointFormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := persist.EncodeFrame(&v1, CheckpointMagic, 1, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpointFrame(v1.Bytes()); !errors.Is(err, persist.ErrVersion) {
		t.Fatalf("v1 frame: %v, want persist.ErrVersion", err)
	}
}

func TestFramedModelRejectsBitFlip(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-2] ^= 0x10
	if _, err := ReadModel(bytes.NewReader(data)); err == nil {
		t.Fatal("bit-flipped model accepted")
	}
}

// mutate makes one structure-aware edit to the value v points at. It walks
// every slice and number reachable through v's exported fields and
// pointers, and op picks the edit: cut slice at to val elements, extend it
// by a copy of its last element, or add val to number at. Indices wrap, so
// every input names an edit; small ones reach the first fields walked.
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

// FuzzCheckpointRuns: a checkpoint its restores accept is one a controller
// can run. The seeds are valid payloads taken in warm-up, identification
// and exploit, the identification one with a controller part of the wrong
// JSON type, and three payloads without an engine part (an empty object, a
// bare controller part, an old frame's model); every seed goes through
// DecodeCheckpointFrame. The fuzz input picks one and one mutate edit (a small
// signed delta: counters a request away from wrapping int64 are not a state
// a node reaches). The payload is restored into a fresh controller over
// Sharded(2): a part that is malformed or does not fit is a clean error. An
// engine part refused ends the case. Over a restored engine, a refused
// controller part leaves a fresh warm-up, and either way the controller
// plays a trace crossing a round and an epoch boundary: no panic, every
// request counted once, and the controller's own checkpoint re-encodes to
// the same bytes and restores into another fresh controller.
func FuzzCheckpointRuns(f *testing.F) {
	m := trainedModel(f)
	cfg := OnlineConfig{Epoch: 1200, Warmup: 300, Round: 100, StabilityRounds: 3}
	rig := func(t testing.TB) (*Controller, *cache.Sharded) {
		ec := testEval()
		eng, err := cache.NewSharded(cache.Config{HOCBytes: ec.HOCBytes, DCBytes: ec.DCBytes}, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(m, eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, eng
	}
	reqs := testTraces(f)[3].Requests
	play := &trace.Trace{Requests: reqs[len(reqs)-cfg.Epoch-cfg.Round:]}
	var seeds [][]byte
	c, eng := rig(f)
	i := 0
	for _, phase := range []Phase{PhaseWarmup, PhaseIdentify, PhaseExploit} {
		for ; c.Phase() != phase || c.CheckpointState().EpochReqs%cfg.Round != cfg.Round/2; i++ {
			if i == len(reqs)-len(play.Requests) {
				f.Fatalf("the seed trace never reached %v", phase)
			}
			c.Serve(reqs[i])
		}
		frame, err := EncodeCheckpointFrame(eng.State(), c.CheckpointState())
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, frame)
		f.Add(uint8(len(seeds)-1), uint8(2), uint16(0), int16(0))
	}
	f.Add(uint8(1), uint8(0), uint16(2), int16(1))
	f.Add(uint8(2), uint8(1), uint16(9), int16(0))
	f.Add(uint8(0), uint8(2), uint16(40), int16(-3))
	wrongType, err := DecodeCheckpointFrame(seeds[1])
	if err != nil {
		f.Fatal(err)
	}
	wrongType.Controller = json.RawMessage(`"garbage"`)
	garbage, err := json.Marshal(wrongType)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, framed(f, garbage))
	f.Add(uint8(len(seeds)-1), uint8(2), uint16(0), int16(0))
	for _, payload := range []string{`{}`, `{"controller":{"phase":"warmup"}}`, `{"model":{"version":1}}`} {
		seeds = append(seeds, framed(f, []byte(payload)))
		f.Add(uint8(len(seeds)-1), uint8(2), uint16(0), int16(0))
	}
	f.Fuzz(func(t *testing.T, seed, op uint8, at uint16, val int16) {
		seed %= uint8(len(seeds))
		cj, err := DecodeCheckpointFrame(seeds[seed])
		if err != nil {
			t.Fatal(err)
		}
		es, _ := cj.EngineState() // nil for a seed without one, whose part stays as it is
		var cs *ControllerState   // nil for the wrong-typed part, which stays as it is
		if err := json.Unmarshal(cj.Controller, &cs); err != nil {
			cs = nil
		}
		mutate(&struct {
			*ControllerState
			*cache.ShardedState
		}{cs, es}, op, at, val)
		if es != nil {
			if cj.Engine, err = json.Marshal(es); err != nil {
				t.Fatal(err)
			}
		}
		if cs != nil {
			cj.Controller = controllerPart(t, cs)
		}
		payload, err := json.Marshal(cj)
		if err != nil {
			t.Fatal(err)
		}
		c, eng := rig(t)
		ck, err := DecodeCheckpointFrame(framed(t, payload))
		if err != nil {
			t.Fatalf("a marshalled checkpoint does not decode: %v", err)
		}
		unedited := op%3 == 2 && val == 0
		hasEngine := es != nil
		if es, err = ck.EngineState(); err == nil {
			err = eng.RestoreState(es)
		}
		if err != nil {
			if unedited && hasEngine {
				t.Fatalf("an unedited seed's engine does not restore: %v", err)
			}
			return
		}
		err = c.RestoreState(ck.Controller)
		switch {
		case err == nil && cs == nil:
			t.Fatal("a controller part of the wrong type restored")
		case err != nil && unedited && cs != nil:
			t.Fatalf("an unedited seed's controller does not restore: %v", err)
		case err != nil:
			if st := c.CheckpointState(); st.Phase != PhaseWarmup || st.Epoch != 0 || st.EpochReqs != 0 || st.Bandit != nil {
				t.Fatalf("a refused controller part (%v) left %s at epoch %d, request %d; want a fresh warm-up",
					err, st.Phase, st.Epoch, st.EpochReqs)
			}
		}
		c.Play(play)
		if mt := eng.Metrics(); mt.HOCHits+mt.DCHits+mt.Misses != mt.Requests {
			t.Fatalf("after play: %d hits and misses for %d requests", mt.HOCHits+mt.DCHits+mt.Misses, mt.Requests)
		}
		again, err := EncodeCheckpointFrame(eng.State(), c.CheckpointState())
		if err != nil {
			t.Fatal(err)
		}
		if ck, err = DecodeCheckpointFrame(again); err != nil {
			t.Fatalf("the controller's own checkpoint does not decode: %v", err)
		}
		if twice, err := json.Marshal(ck); err != nil || !bytes.Equal(framed(t, twice), again) {
			t.Fatalf("the checkpoint does not round-trip its bytes (%v)", err)
		}
		c, eng = rig(t)
		if es, err = ck.EngineState(); err == nil {
			err = eng.RestoreState(es)
		}
		if err != nil {
			t.Fatalf("the controller's own engine state does not restore: %v", err)
		}
		if err := c.RestoreState(ck.Controller); err != nil {
			t.Fatalf("the controller's own state does not restore: %v", err)
		}
	})
}

// TestCheckpointCoversEveryField is the reflection form of generating
// save/restore code from struct definitions: every field of a checkpointed
// live struct is either carried by the named fields of its snapshot or
// listed as derived or transient, with the reason; every snapshot field
// carries some live field. A field added to a live struct fails here until
// it is classified, so it cannot silently drop out of a restart or a
// handoff.
func TestCheckpointCoversEveryField(t *testing.T) {
	for _, pair := range []struct {
		live, state reflect.Type
		fields      map[string]string // live field → snapshot fields, or "derived: …" / "transient: …"
	}{
		{reflect.TypeOf((*cache.Hierarchy)(nil)).Elem(), reflect.TypeOf(cache.HierarchyState{}), map[string]string{
			"objs":           "Tracker,HOC,DC", // counts, recency and missed marks; residency
			"hoc":            "HOC",
			"dc":             "DC",
			"hocCap":         "HOCBytes",
			"dcCap":          "DCBytes",
			"hocName":        "HOCEviction",
			"expert":         "Expert",
			"admission":      "transient: a baseline's admission override, installed by its constructor, not learned",
			"dclog":          "transient: the journal the node wires in, which persists itself",
			"reqIdx":         "ReqIdx",
			"m":              "Metrics",
			"expertSwitches": "Switches",
		}},
		{reflect.TypeOf((*Controller)(nil)).Elem(), reflect.TypeOf(ControllerState{}), map[string]string{
			"model": "transient: the restorer's own, read from its model file (ReadModel)",
			"eng":   "transient: the engine's state is the checkpoint's Engine part",
			"cfg":   "derived: the restorer's own config, which restore checks the state fits",
			"run":   "transient: eng's ServeRun, found by NewController",
			"mu":    "transient: a lock",
			// st.sigma is carried too: fit rebuilds it from Set, ClusterID and Extended.
			"st":        "Phase,Epoch,EpochReqs,RoundReqs,ClusterID,Set,Extended,Prof,CurArm,RoundStart,Bandit,Diags,LearningNS,sigma",
			"extractor": "transient: the warm-up feature tree is not checkpointed (§6.4); restore re-enters warm-up",
		}},
	} {
		carried := map[string]bool{}
		for i := 0; i < pair.live.NumField(); i++ {
			name := pair.live.Field(i).Name
			how, ok := pair.fields[name]
			switch {
			case !ok:
				t.Errorf("%v.%s is neither serialized nor marked derived or transient", pair.live, name)
			case strings.HasPrefix(how, "derived: "), strings.HasPrefix(how, "transient: "):
			default:
				for _, f := range strings.Split(how, ",") {
					if _, ok := pair.state.FieldByName(f); !ok {
						t.Errorf("%v.%s is carried by %v.%s, which does not exist", pair.live, name, pair.state, f)
					}
					carried[f] = true
				}
			}
		}
		for name := range pair.fields {
			if _, ok := pair.live.FieldByName(name); !ok {
				t.Errorf("%v has no field %s to classify", pair.live, name)
			}
		}
		for i := 0; i < pair.state.NumField(); i++ {
			if f := pair.state.Field(i).Name; !carried[f] {
				t.Errorf("%v.%s carries no field of %v", pair.state, f, pair.live)
			}
		}
	}
}

// identifyMidRound serves the test traces, one epoch each, until the
// controller is halfway through an identification round of an epoch after
// the first, so that its state has a set, features, a size profile, a
// bandit and an epoch log; it returns the controller and how many requests
// it served.
func identifyMidRound(t *testing.T, m *Model, reqs []trace.Request) (*Controller, int) {
	t.Helper()
	c, _ := newShardedController(t, m)
	for i, r := range reqs {
		c.Serve(r)
		if st := c.CheckpointState(); st.Phase == PhaseIdentify && st.Epoch > 0 && st.RoundReqs == onlineCfg().Round/2 {
			return c, i + 1
		}
	}
	t.Fatal("no identification round after the first epoch")
	return nil, 0
}

// TestSnapshotSharesNothingWithLiveState: the live state is the snapshot's
// own struct, so CheckpointState must copy every slice. A snapshot keeps
// the bytes it was taken with while its controller serves on, and editing
// the slices of a restored controller's snapshot leaves its next snapshot
// as it was. (Restore decodes its own copy of the part it is given.)
func TestSnapshotSharesNothingWithLiveState(t *testing.T) {
	m := trainedModel(t)
	var reqs []trace.Request
	for _, tr := range testTraces(t) {
		reqs = append(reqs, tr.Requests...)
	}
	c, n := identifyMidRound(t, m, reqs)
	st := c.CheckpointState()
	taken, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs[n : n+3*onlineCfg().Epoch] {
		c.Serve(r)
	}
	if later, _ := json.Marshal(st); !bytes.Equal(later, taken) {
		t.Fatalf("a snapshot changed while its controller served on:\n%s\n%s", taken, later)
	}
	r, _ := newShardedController(t, m)
	if err := r.RestoreState(taken); err != nil {
		t.Fatal(err)
	}
	fresh := r.CheckpointState()
	want, _ := json.Marshal(fresh)
	fresh.Set[0]++
	fresh.Extended[0]++
	fresh.Prof.Fractions[0]++
	fresh.Prof.Sizes[0]++
	fresh.Diags[0].Epoch++
	fresh.Bandit.Plays[0]++
	fresh.Bandit.Mu[0]++
	if got, _ := json.Marshal(r.CheckpointState()); !bytes.Equal(got, want) {
		t.Fatalf("editing a restored snapshot changed the controller:\n%s\n%s", want, got)
	}
}
