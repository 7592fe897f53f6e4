package exp

import (
	"bytes"
	"strings"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/tracegen"
)

// cacheGrid3 returns a small three-knob expert grid for the extension test.
func cacheGrid3() []cache.Expert {
	return cache.Grid3([]int{1, 3}, []int64{10 << 10, 200 << 10}, []int64{2000, 20000})
}

func TestFig6ObjectiveBMR(t *testing.T) {
	rep, err := Fig6Objective(tinyCorpus(t), "bmr", "fig6a test")
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
	rep, err := Fig6Objective(tinyCorpus(t), "combined", "fig6b test")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestFig6ObjectiveUnknown(t *testing.T) {
	if _, err := Fig6Objective(tinyCorpus(t), "latency", "x"); err == nil {
		t.Fatal("unknown objective accepted")
	}
}

// TestFig6RetrainMatchesObjectiveCorpus: retraining the OHR corpus's dataset
// for an objective gives the model a corpus built for that objective has,
// byte for byte — the dataset does not depend on the objective.
func TestFig6RetrainMatchesObjectiveCorpus(t *testing.T) {
	c := tinyCorpus(t)
	for _, name := range []string{"bmr", "combined"} {
		obj, err := core.ObjectiveByName(name)
		if err != nil {
			t.Fatal(err)
		}
		retrained, err := c.Scale.train(c.Dataset, obj)
		if err != nil {
			t.Fatal(err)
		}
		built, err := BuildCorpus(tiny(), name)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := core.WriteModel(&a, retrained); err != nil {
			t.Fatal(err)
		}
		if err := core.WriteModel(&b, built.Model); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: retrained model (%d bytes) differs from the %s corpus's (%d bytes)", name, a.Len(), name, b.Len())
		}
	}
}

// TestEmptyEnsembleRejected: every experiment that runs Darwin over the
// ensemble returns the one empty-ensemble error on a corpus without test
// traces, instead of panicking or averaging nothing.
func TestEmptyEnsembleRejected(t *testing.T) {
	c := tinyCorpus(t)
	noTest := &Corpus{Scale: c.Scale, Train: c.Train, Dataset: c.Dataset, Model: c.Model}
	for _, tc := range []struct {
		name string
		run  func(*Corpus) error
	}{
		{"Fig4Compare", func(c *Corpus) error { _, _, _, err := Fig4Compare(c, "x"); return err }},
		{"Table2", func(c *Corpus) error { _, err := Table2(c); return err }},
		{"Fig6Objective", func(c *Corpus) error { _, err := Fig6Objective(c, "bmr", "x"); return err }},
		{"AblationSideInfo", func(c *Corpus) error { _, err := AblationSideInfo(c); return err }},
		{"AblationStopping", func(c *Corpus) error { _, err := AblationStopping(c); return err }},
		{"AblationRoundLength", func(c *Corpus) error { _, err := AblationRoundLength(c, []int{300}); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(noTest); err == nil || err.Error() != "exp: empty ensemble" {
				t.Fatalf("err = %v, want exp: empty ensemble", err)
			}
		})
	}
}

func TestAblationStoppingRuns(t *testing.T) {
	rep, err := AblationStopping(tinyCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestAblationRoundLength(t *testing.T) {
	rep, err := AblationRoundLength(tinyCorpus(t), []int{200, 400, 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// The absurd round length must be skipped (doesn't fit the epoch).
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (oversized N_round skipped)", len(rep.Rows))
	}
}

func TestAblationPredictorFeatures(t *testing.T) {
	rep := sameTwice(t, func() (*Report, error) { return AblationPredictorFeatures(tinyCorpus(t)) })
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
	tr, err := tracegen.ImageDownloadMix(50, sc.OnlineTraceLen, sc.Seed+77)
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
	train, _, err := BuildTraces(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fig11ThreeKnob(&Corpus{Scale: sc, Train: train}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestScaledCorpus(t *testing.T) {
	base := tinyCorpus(t)
	c, err := ScaledCorpus(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Scale.Eval.HOCBytes != 2*base.Scale.Eval.HOCBytes {
		t.Fatal("cache not scaled")
	}
	if len(c.Test) != len(base.Test) {
		t.Fatal("test set size changed")
	}
	// Object sizes roughly doubled: request for request, so the mean's ratio
	// is the total's.
	var b0, b1 int64
	for i, r := range base.Test[0].Requests {
		b0, b1 = b0+r.Size, b1+c.Test[0].Requests[i].Size
	}
	ratio := float64(b1) / float64(b0)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("mean size ratio %.2f, want ~2 (±20%% perturbation)", ratio)
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
	c, err := BuildCorpus(sc, "ohr")
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
