package bandit

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func testSigma2() [][]float64 {
	return [][]float64{
		{0.01, 0.02, 0.04},
		{0.02, 0.01, 0.02},
		{0.04, 0.02, 0.01},
	}
}

func TestStateRoundTrip(t *testing.T) {
	cfg := DefaultConfig(testSigma2())
	cfg.StabilityRounds = 0 // keep it running so we snapshot mid-flight
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mus := []float64{0.3, 0.5, 0.45}
	x := uint64(1)
	for r := 0; r < 25; r++ {
		arm := a.NextArm()
		rewards := make([]float64, 3)
		for j := range rewards {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			noise := (float64(x%1000)/1000 - 0.5) * 0.1
			rewards[j] = mus[j] + noise
		}
		if err := a.Update(arm, rewards); err != nil {
			t.Fatal(err)
		}
	}

	st := a.State()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetState(&decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatalf("state diverges after round trip:\n a=%+v\n b=%+v", a.State(), b.State())
	}
	// The restored run must make identical decisions forever after.
	for r := 0; r < 10; r++ {
		armA, armB := a.NextArm(), b.NextArm()
		if armA != armB {
			t.Fatalf("round %d: arms diverge (%d vs %d)", r, armA, armB)
		}
		rewards := []float64{0.3, 0.5, 0.45}
		if err := a.Update(armA, rewards); err != nil {
			t.Fatal(err)
		}
		if err := b.Update(armB, rewards); err != nil {
			t.Fatal(err)
		}
		if a.Stopped() != b.Stopped() || a.Recommendation() != b.Recommendation() {
			t.Fatalf("round %d: stop/recommendation diverge", r)
		}
	}
}

// TestSetStateRejectsInvalid: SetState refuses every malformed snapshot,
// whether its shape is wrong or it does not fit the run (its arm count), and
// leaves the run unchanged.
func TestSetStateRejectsInvalid(t *testing.T) {
	a, err := New(DefaultConfig(testSigma2()))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Update(a.NextArm(), []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	before := a.State()
	good := a.State()

	cases := []struct {
		name string
		mut  func(st *State)
	}{
		{"nil", nil},
		{"short-plays", func(st *State) { st.Plays = st.Plays[:1] }},
		{"fewer-arms", func(st *State) {
			st.Plays, st.SumWY, st.Rho, st.Mu = st.Plays[:2], st.SumWY[:2], st.Rho[:2], st.Mu[:2]
		}},
		{"negative-t", func(st *State) { st.T = -1 }},
		{"negative-play", func(st *State) { st.Plays[0] = -2 }},
		{"plays-sum-mismatch", func(st *State) { st.T = 99 }},
		{"nan-mu", func(st *State) { st.Mu[1] = math.NaN() }},
		{"inf-sumwy", func(st *State) { st.SumWY[0] = math.Inf(1) }},
		{"negative-rho", func(st *State) { st.Rho[2] = -1 }},
		{"last-out-of-range", func(st *State) { st.Last = 7 }},
		{"negative-stable", func(st *State) { st.Stable = -1 }},
		{"bogus-reason", func(st *State) { st.Reason = "vibes" }},
		{"done-no-reason", func(st *State) { st.Done = true; st.Reason = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var bad *State
			if tc.mut != nil {
				blob, _ := json.Marshal(good)
				bad = &State{}
				if err := json.Unmarshal(blob, bad); err != nil {
					t.Fatal(err)
				}
				tc.mut(bad)
			}
			if err := a.SetState(bad); err == nil {
				t.Fatal("invalid state accepted")
			}
			if !reflect.DeepEqual(a.State(), before) {
				t.Fatal("failed SetState mutated the algorithm")
			}
		})
	}
}

// TestStateSharesNothingWithTheRun: the run keeps its State as its storage,
// so State and SetState must copy every slice. A snapshot keeps its bytes
// while the run updates on, and editing a restored snapshot's slices
// leaves the run's next State as it was.
func TestStateSharesNothingWithTheRun(t *testing.T) {
	cfg := DefaultConfig(testSigma2())
	cfg.StabilityRounds = 0
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rewards := []float64{0.3, 0.5, 0.45}
	for r := 0; r < 4; r++ {
		if err := a.Update(a.NextArm(), rewards); err != nil {
			t.Fatal(err)
		}
	}
	st := a.State()
	taken, _ := json.Marshal(st)
	for r := 0; r < 4; r++ {
		if err := a.Update(a.NextArm(), rewards); err != nil {
			t.Fatal(err)
		}
	}
	if later, _ := json.Marshal(st); string(later) != string(taken) {
		t.Fatalf("a snapshot changed while its run updated on:\n%s\n%s", taken, later)
	}
	if err := a.SetState(st); err != nil {
		t.Fatal(err)
	}
	st.Plays[0]++
	st.SumWY[0]++
	st.Rho[0]++
	st.Mu[0]++
	if got, _ := json.Marshal(a.State()); string(got) != string(taken) {
		t.Fatalf("editing a restored snapshot changed the run:\n%s\n%s", taken, got)
	}
}
