package bandit

import (
	"bytes"
	"encoding/binary"
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
	a, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mus := []float64{0.3, 0.5, 0.45}
	x := uint64(1)
	for r := 0; r < 25; r++ {
		arm := Next(cfg, a)
		rewards := make([]float64, 3)
		for j := range rewards {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			noise := (float64(x%1000)/1000 - 0.5) * 0.1
			rewards[j] = mus[j] + noise
		}
		if a, err = Update(cfg, a, arm, rewards); err != nil {
			t.Fatal(err)
		}
	}

	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	b := &State{}
	if err := json.Unmarshal(blob, b); err != nil {
		t.Fatal(err)
	}
	if err := cfg.CheckState(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("state diverges after round trip:\n a=%+v\n b=%+v", a, b)
	}
	// The restored state must make identical decisions forever after.
	for r := 0; r < 10; r++ {
		armA, armB := Next(cfg, a), Next(cfg, b)
		if armA != armB {
			t.Fatalf("round %d: arms diverge (%d vs %d)", r, armA, armB)
		}
		rewards := []float64{0.3, 0.5, 0.45}
		if a, err = Update(cfg, a, armA, rewards); err != nil {
			t.Fatal(err)
		}
		if b, err = Update(cfg, b, armB, rewards); err != nil {
			t.Fatal(err)
		}
		if a.Done != b.Done || a.Recommendation() != b.Recommendation() {
			t.Fatalf("round %d: stop/recommendation diverge", r)
		}
	}
}

// TestSetStateRejectsInvalid: CheckState refuses every malformed state,
// whether its shape is wrong or it does not fit the configuration (its arm
// count), and writes none of it.
func TestSetStateRejectsInvalid(t *testing.T) {
	cfg := DefaultConfig(testSigma2())
	st, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good, err := Update(cfg, st, Next(cfg, st), []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.CheckState(good); err != nil {
		t.Fatalf("a state Update returned is refused: %v", err)
	}

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
				bad = good.Clone()
				tc.mut(bad)
			}
			given, _ := json.Marshal(bad)
			if err := cfg.CheckState(bad); err == nil {
				t.Fatal("invalid state accepted")
			}
			if again, _ := json.Marshal(bad); string(again) != string(given) {
				t.Fatal("CheckState wrote the state it checked")
			}
		})
	}
}

// TestStateSharesNothingWithTheRun: Update writes none of its arguments, and
// the state it returns shares no slice with the one it was given. A state
// keeps its bytes while the run updates on from it, and editing the next
// state's slices leaves it as it was.
func TestStateSharesNothingWithTheRun(t *testing.T) {
	cfg := DefaultConfig(testSigma2())
	cfg.StabilityRounds = 0
	st, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rewards := []float64{0.3, 0.5, 0.45}
	for r := 0; r < 4; r++ {
		if st, err = Update(cfg, st, Next(cfg, st), rewards); err != nil {
			t.Fatal(err)
		}
	}
	taken, _ := json.Marshal(st)
	next := st
	for r := 0; r < 4; r++ {
		if next, err = Update(cfg, next, Next(cfg, next), rewards); err != nil {
			t.Fatal(err)
		}
	}
	if later, _ := json.Marshal(st); string(later) != string(taken) {
		t.Fatalf("a state changed while its run updated on:\n%s\n%s", taken, later)
	}
	if !reflect.DeepEqual(rewards, []float64{0.3, 0.5, 0.45}) {
		t.Fatalf("Update wrote its reward vector: %v", rewards)
	}
	next.Plays[0]++
	next.SumWY[0]++
	next.Rho[0]++
	next.Mu[0]++
	if got, _ := json.Marshal(st); string(got) != string(taken) {
		t.Fatalf("editing the next state changed the one it came from:\n%s\n%s", taken, got)
	}
}

// FuzzBanditStep: from any configuration Validate accepts and any state
// CheckState accepts, both built from the fuzz input, Next picks an arm in
// range and Update either refuses the round or returns a state CheckState
// accepts. Neither writes the state it is given. The input is read as
// 8-byte words: a float is a word's bits, so Σ, the estimators and the
// rewards range over every value (a non-finite reward is read as 0), and a
// count is a word's low byte, so no count is near overflow.
func FuzzBanditStep(f *testing.F) {
	words := func(n int, w uint64) []byte {
		return bytes.Repeat(binary.BigEndian.AppendUint64(nil, w), n)
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), words(40, math.Float64bits(0.01)))
	f.Add(uint8(6), words(120, math.Float64bits(2)))
	f.Add(uint8(2), append(words(4, math.Float64bits(1e-300)), words(20, math.Float64bits(1e300))...))
	f.Fuzz(func(t *testing.T, arms uint8, data []byte) {
		word := func() uint64 {
			var w [8]byte
			data = data[copy(w[:], data):]
			return binary.BigEndian.Uint64(w[:])
		}
		float := func() float64 { return math.Float64frombits(word()) }
		count := func() int { return int(word() % 256) }
		k := 2 + int(arms)%7
		cfg := Config{Sigma2: make([][]float64, k), Delta: 0.05}
		for i := range cfg.Sigma2 {
			cfg.Sigma2[i] = make([]float64, k)
			for j := range cfg.Sigma2[i] {
				cfg.Sigma2[i][j] = float()
			}
		}
		cfg.StabilityRounds, cfg.MaxRounds = count()%8, count()
		if cfg.Validate() != nil {
			return
		}
		st := &State{Plays: make([]int, k), SumWY: make([]float64, k), Rho: make([]float64, k), Mu: make([]float64, k)}
		for i := 0; i < k; i++ {
			st.Plays[i] = count()
			st.T += st.Plays[i]
			st.SumWY[i], st.Rho[i], st.Mu[i] = float(), float(), float()
		}
		st.Stable, st.Last = count(), count()%(k+1)-1
		st.Reason = []string{"", "stability", "threshold", "max-rounds"}[count()%4]
		st.Done = st.Reason != "" && count()%2 == 1
		if cfg.CheckState(st) != nil {
			return
		}
		arm := count() % (k + 1) // k is out of range
		rewards := make([]float64, k)
		for j := range rewards {
			if rewards[j] = float(); !finite(rewards[j]) {
				rewards[j] = 0
			}
		}
		given := st.Clone()
		if a := Next(cfg, st); a < 0 || a >= k {
			t.Fatalf("Next picked arm %d of %d", a, k)
		}
		if !reflect.DeepEqual(st, given) {
			t.Fatalf("Next wrote its state:\n%+v\n%+v", given, st)
		}
		out, err := Update(cfg, st, arm, rewards)
		if !reflect.DeepEqual(st, given) {
			t.Fatalf("Update wrote its state:\n%+v\n%+v", given, st)
		}
		if err != nil {
			return
		}
		if arm == k {
			t.Fatalf("Update accepted arm %d of %d", arm, k)
		}
		if err := cfg.CheckState(out); err != nil {
			t.Fatalf("Update returned a state CheckState refuses: %v\n%+v", err, out)
		}
	})
}
