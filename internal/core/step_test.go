package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/features"
)

// TestStepTable runs step over every (phase, event) pair. A legal pair moves
// to the phase it names with its action: deploy the new round's arm or the
// recommendation identification ended on, or nothing. An illegal one — a
// round's end outside identification, warm-up's end outside warm-up — is
// refused with the state unchanged. No call writes the state it is given.
func TestStepTable(t *testing.T) {
	m := trainedModel(t)
	cfg := onlineCfg()
	ex, err := features.NewExtractor(m.FeatureCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testTraces(t)[3].Requests[:cfg.Warmup] {
		ex.Observe(r)
	}
	warm := event{kind: warmupDone, extended: ex.Extended()}
	round := event{kind: roundDone, round: cache.Metrics{Requests: 400, HOCHits: 100, Misses: 300}}
	epoch := event{kind: epochDone}

	warmup := ControllerState{Phase: PhaseWarmup, Epoch: 3, EpochReqs: cfg.Warmup}
	identify, _, err := step(m, cfg, warmup, warm)
	if err != nil || identify.Phase != PhaseIdentify {
		t.Fatalf("warm-up's end gave %s (%v): the test needs a trace that identifies", identify.Phase, err)
	}
	identify.EpochReqs, identify.RoundReqs = cfg.Warmup+cfg.Round, cfg.Round
	exploiting := identify
	exploiting.Phase, exploiting.Bandit, exploiting.sigma = PhaseExploit, nil, nil

	none := func(ControllerState) action { return action{} }
	arm := func(next ControllerState) action {
		return action{deploy: true, expert: m.Experts[next.Set[next.CurArm]]}
	}
	chosen := func(next ControllerState) action {
		return action{deploy: true, expert: next.Diags[len(next.Diags)-1].Chosen}
	}
	for _, tc := range []struct {
		name  string
		st    ControllerState
		ev    event
		phase Phase // "" for a refused event
		want  func(next ControllerState) action
	}{
		{"warmup/warm-up", warmup, warm, PhaseIdentify, arm},
		{"warmup/round", warmup, round, "", none},
		{"warmup/epoch", warmup, epoch, PhaseWarmup, none},
		{"identify/warm-up", identify, warm, "", none},
		{"identify/round", identify, round, PhaseIdentify, arm},
		{"identify/epoch", identify, epoch, PhaseWarmup, chosen},
		{"exploit/warm-up", exploiting, warm, "", none},
		{"exploit/round", exploiting, round, "", none},
		{"exploit/epoch", exploiting, epoch, PhaseWarmup, none},
	} {
		t.Run(tc.name, func(t *testing.T) {
			given, _ := json.Marshal(tc.st)
			next, act, err := step(m, cfg, tc.st, tc.ev)
			if again, _ := json.Marshal(tc.st); string(again) != string(given) {
				t.Fatalf("step wrote the state it was given:\n%s\n%s", given, again)
			}
			if tc.phase == "" {
				if err == nil || act != (action{}) || !reflect.DeepEqual(next, tc.st) {
					t.Fatalf("refused pair: error %v, action %+v, state changed: %v", err, act, !reflect.DeepEqual(next, tc.st))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if next.Phase != tc.phase {
				t.Fatalf("next phase %s, want %s", next.Phase, tc.phase)
			}
			if want := tc.want(next); act != want {
				t.Fatalf("action %+v, want %+v", act, want)
			}
			switch tc.ev.kind {
			case roundDone:
				if next.RoundReqs != 0 || next.Bandit.T != tc.st.Bandit.T+1 {
					t.Fatalf("the next round opens at %d requests after %d rounds", next.RoundReqs, next.Bandit.T)
				}
			case epochDone:
				if next.Epoch != tc.st.Epoch+1 || next.EpochReqs != 0 || next.RoundReqs != 0 || next.Bandit != nil {
					t.Fatalf("epoch %d at %d/%d, bandit %v after the epoch's end", next.Epoch, next.EpochReqs, next.RoundReqs, next.Bandit)
				}
			}
		})
	}
}
