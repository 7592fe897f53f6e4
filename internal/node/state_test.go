package node

// Property test for the drain-time state handoff: a donor controller's
// learned state — bandit posteriors above all — must round-trip through the
// real HTTP path (provider → DRWNCKPT frame → POST /state → acceptor →
// inheritor restore) bit-identically, across many seeds. And the dual: a
// corrupt frame must be rejected by the CRC/validation layers without
// mutating the inheritor at all.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/core"
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
func handoffModel(t *testing.T) *core.Model {
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
		Delta:           0.05,
		StabilityRounds: 8,
		Neff:            50,
		VarFloor:        1e-4,
	}
}

func newHandoffController(t *testing.T, m *core.Model) (*core.Controller, *cache.Sharded) {
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
// asserts the inheritor adopted the bandit posteriors bit-identically. Then
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
		donorState := donorCtrl.CheckpointState()
		if donorState.Bandit != nil {
			banditsSeen++
		}
		frame, err := handoffProvider(donorEng, donorCtrl, model)()
		if err != nil {
			t.Fatal(err)
		}

		// Inheritor: a fresh proxy serving the real /state endpoint.
		inhCtrl, inhEng := newHandoffController(t, model)
		proxy := server.NewOverloadProxy(inhCtrl, "http://127.0.0.1:9", 0, server.Resilience{}, server.Overload{})
		proxy.EnableStateHandoff(server.StateHandoff{
			Provide: handoffProvider(inhEng, inhCtrl, model),
			Accept:  handoffAcceptor(inhEng, inhCtrl),
		})
		srv := httptest.NewServer(http.HandlerFunc(proxy.ServeState))

		resp, err := http.Post(srv.URL+"/state", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("seed %d: handoff POST status %d, want 204", seed, resp.StatusCode)
		}

		// The donor was ahead (the inheritor is epoch-zero fresh), so its
		// learned state must have been adopted whole — posteriors to the bit.
		got := inhCtrl.CheckpointState()
		if !reflect.DeepEqual(got.Bandit, donorState.Bandit) {
			t.Fatalf("seed %d: bandit posteriors mutated in transit:\n got %+v\nwant %+v", seed, got.Bandit, donorState.Bandit)
		}
		if got.Epoch != donorState.Epoch || got.EpochReqs != donorState.EpochReqs {
			t.Fatalf("seed %d: epoch position %d/%d, want %d/%d", seed, got.Epoch, got.EpochReqs, donorState.Epoch, donorState.EpochReqs)
		}

		// And the donor's residency arrived: the inheritor can now re-serve
		// it through its own provider, still bit-identical.
		reframe, err := handoffProvider(inhEng, inhCtrl, model)()
		if err != nil {
			t.Fatal(err)
		}
		reck, err := core.DecodeCheckpointFrame(reframe)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reck.Controller.Bandit, donorState.Bandit) {
			t.Fatalf("seed %d: posteriors drifted through the inheritor's own provider", seed)
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
		t.Fatal("no seed produced bandit posteriors; the round-trip never exercised them")
	}
}
