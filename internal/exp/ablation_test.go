package exp

import (
	"strings"
	"testing"

	"darwin/internal/cache"
)

// cacheGrid3 returns a small three-knob expert grid for the extension test.
func cacheGrid3() []cache.Expert {
	return cache.Grid3([]int{1, 3}, []int64{10 << 10, 200 << 10}, []int64{2000, 20000})
}

func TestFig6ObjectiveBMR(t *testing.T) {
	rep, err := Fig6Objective(tiny(), "bmr", "fig6a test")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(tiny().Experts) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if !strings.Contains(rep.Notes[0], "bmr") {
		t.Fatalf("note = %v", rep.Notes)
	}
}

func TestFig6ObjectiveCombined(t *testing.T) {
	rep, err := Fig6Objective(tiny(), "combined", "fig6b test")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestFig6ObjectiveUnknown(t *testing.T) {
	if _, err := Fig6Objective(tiny(), "latency", "x"); err == nil {
		t.Fatal("unknown objective accepted")
	}
}

func TestAblationStoppingRuns(t *testing.T) {
	rep, err := AblationStopping(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestAblationRoundLength(t *testing.T) {
	sc := tiny()
	rep, err := AblationRoundLength(sc, []int{200, 400, 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// The absurd round length must be skipped (doesn't fit the epoch).
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (oversized N_round skipped)", len(rep.Rows))
	}
}

func TestAblationPredictorFeatures(t *testing.T) {
	rep := sameTwice(t, func() (*Report, error) { return AblationPredictorFeatures(tiny()) })
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// The full-feature variant retrains the corpus's own model and scores it
	// on the same held-out records as Figure 10, so the two must agree.
	fig10, err := Fig10OutOfDistribution(tinyCorpus(t), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Rows[0][1], fig10.Rows[0][1]; got != want {
		t.Fatalf("base + size distribution accuracy %s, Figure 10 mean at 1%% proximity %s", got, want)
	}
}

func TestAblationRoundsVsK(t *testing.T) {
	rep := sameTwice(t, func() (*Report, error) { return AblationRoundsVsK([]int{4, 16}) })
	if len(rep.Rows) != 2 || rep.Rows[1][0] != "16" {
		t.Fatalf("rows = %v", rep.Rows)
	}
	// Theorem 2: side information never needs more rounds than standard
	// feedback on the same environments.
	if side, std := parseFloat(rep.Rows[1][1]), parseFloat(rep.Rows[1][3]); side > std {
		t.Fatalf("K=16: side-info rounds %.1f > standard rounds %.1f", side, std)
	}
}

func TestAblationEviction(t *testing.T) {
	sc := tiny()
	rep := sameTwice(t, func() (*Report, error) { return AblationEviction(sc) })
	if len(rep.Rows) != 4 || rep.Rows[0][0] != "lru" {
		t.Fatalf("rows = %v", rep.Rows)
	}
	// LRU is the paper's (and EvalConfig's) default HOC eviction: the lru row
	// is the unablated evaluation.
	tr, err := SyntheticMix(50, sc.OnlineTraceLen, sc.Seed+77)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cache.Evaluate(tr, cache.Expert{Freq: 2, MaxSize: 50 << 10}, sc.Eval)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows[0][1] != f4(m.OHR()) {
		t.Fatalf("lru row OHR %s, default-eviction OHR %s", rep.Rows[0][1], f4(m.OHR()))
	}
}

func TestFutureEvictionSelection(t *testing.T) {
	rep := sameTwice(t, func() (*Report, error) { return FutureEvictionSelection(tiny()) })
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %v", rep.Rows)
	}
	// Exploration rounds cost the selector the best fixed policy's OHR;
	// converging keeps it above the worst.
	lo, hi := 1.0, 0.0
	for _, row := range rep.Rows[:4] {
		v := parseFloat(row[1])
		lo, hi = min(lo, v), max(hi, v)
	}
	if sel := parseFloat(rep.Rows[4][1]); sel < lo || sel > hi {
		t.Fatalf("selector OHR %.4f outside the fixed policies' [%.4f, %.4f]:\n%s", sel, lo, hi, rep)
	}
}

func TestFig11ThreeKnob(t *testing.T) {
	sc := tiny()
	sc.TrainSeeds = 1 // keep the 3-knob dataset build fast
	rep, err := Fig11ThreeKnob(sc, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestScaledCorpus(t *testing.T) {
	c, err := ScaledCorpus(tiny(), 2)
	if err != nil {
		t.Fatal(err)
	}
	base := tinyCorpus(t)
	if c.Scale.Eval.HOCBytes != 2*base.Scale.Eval.HOCBytes {
		t.Fatal("cache not scaled")
	}
	if len(c.Test) != len(base.Test) {
		t.Fatal("test set size changed")
	}
	// Object sizes roughly doubled.
	s0 := base.Test[0].Summarize()
	s1 := c.Test[0].Summarize()
	ratio := s1.MeanSize / s0.MeanSize
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("mean size ratio %.2f, want ~2 (±20%% perturbation)", ratio)
	}
}

func TestHindsightTrace(t *testing.T) {
	sc := tiny()
	tr, err := SyntheticMix(50, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := HindsightTrace(tr, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(sc.Experts) {
		t.Fatalf("metrics = %d", len(ms))
	}
}

func TestFig4aIncludesBeladyNote(t *testing.T) {
	c := tinyCorpus(t)
	rep, _, _, err := Fig4Compare(c, "belady note test")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "Belady") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Belady note: %v", rep.Notes)
	}
}

// TestThreeKnobEndToEnd exercises the paper's claim that Darwin "can be
// trivially extended to include other knobs" (§4): the full offline+online
// pipeline runs unchanged over three-knob (f, s, recency) experts.
func TestThreeKnobEndToEnd(t *testing.T) {
	sc := tiny()
	sc.Experts = cacheGrid3()
	c, err := CachedCorpus(sc, "ohr")
	if err != nil {
		t.Fatal(err)
	}
	m, diags, err := RunDarwin(c, c.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 || len(diags) == 0 {
		t.Fatal("three-knob pipeline produced nothing")
	}
	chosen := diags[len(diags)-1].Chosen
	found := false
	for _, e := range sc.Experts {
		if e == chosen {
			found = true
		}
	}
	if !found {
		t.Fatalf("chosen expert %v not from the three-knob grid", chosen)
	}
}
