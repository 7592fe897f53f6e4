package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

// resume builds a fresh controller+engine from the checkpoint, as a restarted
// process would.
func resume(t *testing.T, ck *Checkpoint) *Controller {
	t.Helper()
	ec := testEval()
	eng, err := cache.NewSharded(cache.Config{HOCBytes: ec.HOCBytes, DCBytes: ec.DCBytes}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(ck.Model, eng, onlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RestoreState(ck.Engine); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreState(ck.Controller); err != nil {
		t.Fatal(err)
	}
	return c
}

func checkpointOf(t *testing.T, c *Controller, eng *cache.Sharded, m *Model) *Checkpoint {
	t.Helper()
	es := eng.State()
	return &Checkpoint{Model: m, Engine: es, Controller: c.CheckpointState()}
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

	ck := checkpointOf(t, c, eng, m)
	payload, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	r := resume(t, decoded)

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
		if c.Engine().Expert() != r.Engine().Expert() {
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

// TestCheckpointResumeMidExploit: in exploit the epoch position lives in the
// lock-free countdown, not in epochReqs — a counter that froze at exploit
// entry passes the identify and warm-up tests. A snapshot taken k requests
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

	ck := checkpointOf(t, c, eng, m)
	if ck.Controller.Phase != "exploit" || ck.Controller.EpochReqs != i {
		t.Fatalf("snapshot after %d serves says %s at %d", i, ck.Controller.Phase, ck.Controller.EpochReqs)
	}
	payload, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	r := resume(t, decoded)
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
	ck := checkpointOf(t, c, eng, m)
	r := resume(t, ck)
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

func TestControllerRestoreRejectsInvalid(t *testing.T) {
	m := trainedModel(t)
	c, eng := newShardedController(t, m)
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
		{"identify-short-features", !identify, func(st *ControllerState) { st.Extended = st.Extended[:3] }},
		{"profile-mismatch", false, func(st *ControllerState) { st.Prof.Sizes = append(st.Prof.Sizes, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip {
				t.Skip("snapshot phase does not exercise this case")
			}
			before := c.CheckpointState()
			var bad *ControllerState
			if tc.mut != nil {
				payload, err := EncodeCheckpoint(&Checkpoint{Controller: good})
				if err != nil {
					t.Fatal(err)
				}
				ck, err := DecodeCheckpoint(payload)
				if err != nil {
					t.Fatal(err)
				}
				bad = ck.Controller
				tc.mut(bad)
			}
			if err := c.RestoreState(bad); err == nil {
				t.Fatal("invalid controller state accepted")
			}
			afterBlob, _ := EncodeCheckpoint(&Checkpoint{Controller: c.CheckpointState()})
			beforeBlob, _ := EncodeCheckpoint(&Checkpoint{Controller: before})
			if !bytes.Equal(afterBlob, beforeBlob) {
				t.Fatal("failed restore mutated the controller")
			}
		})
	}
	_ = eng
}

func TestSaveLoadCheckpointFile(t *testing.T) {
	m := trainedModel(t)
	c, eng := newShardedController(t, m)
	tr := testTraces(t)[1]
	for i := 0; i < 3000; i++ {
		c.Serve(tr.Requests[i])
	}
	path := filepath.Join(t.TempDir(), "darwin.ckpt")
	ck := checkpointOf(t, c, eng, m)
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model == nil || got.Engine == nil || got.Controller == nil {
		t.Fatal("checkpoint parts lost in file round trip")
	}
	r := resume(t, got)
	if r.Metrics() != c.Metrics() {
		t.Fatal("file round trip lost engine state")
	}

	// Missing file is a cold start, not an error.
	absent, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.ckpt"))
	if err != nil || absent != nil {
		t.Fatalf("missing checkpoint: got %v, %v; want nil, nil", absent, err)
	}

	// A flipped bit anywhere fails loudly with a typed framing error.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(path)
	var fe *persist.FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("corrupt checkpoint error = %v, want *persist.FormatError", err)
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

// FuzzDecodeCheckpoint: arbitrary payload bytes must never panic and either
// error or produce a checkpoint that re-encodes.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"controller":{"phase":"warmup"}}`))
	f.Add([]byte(`{"model":{"version":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if _, err := EncodeCheckpoint(ck); err != nil {
			t.Fatalf("accepted checkpoint fails to re-encode: %v", err)
		}
	})
}
