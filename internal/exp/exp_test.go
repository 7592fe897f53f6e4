package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/features"
	"darwin/internal/stats"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{
		OfflineTraceLen: 8_000,
		OnlineTraceLen:  16_000,
		MixStep:         50,
		TrainSeeds:      2,
		TestSeeds:       1,
		Eval:            cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20, WarmupFrac: 0.1},
		Online: core.OnlineConfig{
			Epoch:           16_000,
			Warmup:          800,
			Round:           300,
			StabilityRounds: 3,
		},
		Experts:     cache.Grid([]int{1, 3, 5}, []int64{2 << 10, 20 << 10, 200 << 10}),
		NumClusters: 3,
		ThetaPct:    1,
		Seed:        1,
	}
}

func tinyCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := CachedCorpus(tiny(), "ohr")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReportRendering(t *testing.T) {
	rep := &Report{Title: "t", Header: []string{"a", "bee"}}
	rep.AddRow("xx", "1")
	rep.AddNote("n=%d", 2)
	s := rep.String()
	for _, want := range []string{"== t ==", "a", "bee", "xx", "note: n=2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, s)
		}
	}
}

func TestBuildTracesCounts(t *testing.T) {
	sc := tiny()
	train, test, err := BuildTraces(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Mixes: 0, 50, 100 → 3 configs.
	if len(train) != 3*sc.TrainSeeds {
		t.Fatalf("train = %d", len(train))
	}
	if len(test) != 3*sc.TestSeeds {
		t.Fatalf("test = %d", len(test))
	}
	for _, tr := range train {
		if tr.Len() != sc.OfflineTraceLen {
			t.Fatalf("train trace len %d", tr.Len())
		}
	}
	for _, tr := range test {
		if tr.Len() != sc.OnlineTraceLen {
			t.Fatalf("test trace len %d", tr.Len())
		}
	}
}

func TestCachedCorpusMemoises(t *testing.T) {
	a := tinyCorpus(t)
	b := tinyCorpus(t)
	if a != b {
		t.Fatal("CachedCorpus did not memoise")
	}
	if a.Model == nil || a.Dataset == nil {
		t.Fatal("corpus incomplete")
	}
}

func TestFig2Grid(t *testing.T) {
	c := tinyCorpus(t)
	rep, err := Fig2Grid("fig2 test", c.Test[0], c.Scale.Experts, c.Scale.Eval, GridOHR)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 { // three frequency rows
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if len(rep.Header) != 4 { // f column + three size columns
		t.Fatalf("header = %v", rep.Header)
	}
	if len(rep.Notes) == 0 || !strings.Contains(rep.Notes[0], "optimum") {
		t.Fatal("missing optimum note")
	}
}

func TestFig2DiskWriteLowerIsBetter(t *testing.T) {
	c := tinyCorpus(t)
	rep, err := Fig2Grid("fig2e test", c.Test[0], c.Scale.Experts, c.Scale.Eval, GridDiskWrite)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Notes[0], "lower is better") {
		t.Fatalf("note = %v", rep.Notes)
	}
}

func TestEnsembleSetDiverse(t *testing.T) {
	c := tinyCorpus(t)
	ens, err := EnsembleSet(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens) == 0 {
		t.Fatal("empty ensemble")
	}
	seen := map[string]bool{}
	for _, tr := range ens {
		if seen[tr.Name] {
			t.Fatal("duplicate trace in ensemble")
		}
		seen[tr.Name] = true
	}
}

func TestRunDarwinProducesMetrics(t *testing.T) {
	c := tinyCorpus(t)
	m, diags, err := RunDarwin(c, c.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	wantReqs := int64(c.Test[0].Len()) - int64(float64(c.Test[0].Len())*c.Scale.Eval.WarmupFrac)
	if m.Requests != wantReqs {
		t.Fatalf("requests = %d, want %d", m.Requests, wantReqs)
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
}

func TestFig4CompareShapesAndSanity(t *testing.T) {
	c := tinyCorpus(t)
	rep, results, diags, err := Fig4Compare(c, "fig4 test")
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(c.Scale.Experts) + len(BaselineNames())
	if len(rep.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), wantRows)
	}
	if results[0].Scheme != "darwin" {
		t.Fatal("first result must be darwin")
	}
	if len(diags) == 0 {
		t.Fatal("no darwin diagnostics")
	}
	// Sanity: Darwin's mean OHR must be at least 85% of the best static
	// expert's mean OHR (it pays exploration cost but should be close).
	darwinMean := stats.Mean(results[0].OHR)
	bestStatic := 0.0
	for _, r := range results[1 : 1+len(c.Scale.Experts)] {
		if m := stats.Mean(r.OHR); m > bestStatic {
			bestStatic = m
		}
	}
	if darwinMean < 0.85*bestStatic {
		t.Fatalf("darwin mean OHR %.4f far below best static %.4f", darwinMean, bestStatic)
	}
}

func TestTable2AllBaselines(t *testing.T) {
	c := tinyCorpus(t)
	rep, err := Table2(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(c.Scale.Experts)+len(BaselineNames()) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestNewBaselineUnknown(t *testing.T) {
	c := tinyCorpus(t)
	if _, err := NewBaseline("bogus", c); err == nil {
		t.Fatal("unknown baseline accepted")
	}
	for _, name := range BaselineNames() {
		if _, err := NewBaseline(name, c); err != nil {
			t.Fatalf("NewBaseline(%q): %v", name, err)
		}
	}
}

func TestFig5aConvergence(t *testing.T) {
	c := tinyCorpus(t)
	rep, err := Fig5aFeatureConvergence(c.Train[:2], features.DefaultConfig(), []float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig5bReduction(t *testing.T) {
	c := tinyCorpus(t)
	rep, err := Fig5bClusterReduction(c.Dataset, 3, []float64{1, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig5cAccuracy(t *testing.T) {
	c := tinyCorpus(t)
	rep, err := Fig5cPredictorAccuracy(c.Model, c.Dataset.Records, []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no accuracy rows")
	}
	if _, err := Fig5cPredictorAccuracy(c.Model, nil, []float64{1}); err == nil {
		t.Fatal("empty test records accepted")
	}
}

// sameTwice runs a report function twice and requires byte-identical output:
// every report is deterministic per seed.
func sameTwice(t *testing.T, f func() (*Report, error)) *Report {
	t.Helper()
	a, err := f()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("report not reproducible:\n%s\n---\n%s", a, b)
	}
	return a
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run's reports")

// sameTwiceGolden is sameTwice pinned to testdata/<name>.golden: the first
// render must also match the committed bytes, so a change that moves a
// deterministic report shows as a golden diff. -update rewrites the file.
func sameTwiceGolden(t *testing.T, name string, f func() (*Report, error)) *Report {
	t.Helper()
	rep := sameTwice(t, f)
	path := filepath.Join("testdata", name+".golden")
	got := rep.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/exp -update)", err)
	}
	if got != string(want) {
		t.Fatalf("report differs from %s (regenerate with -update if intended):\n%s\n--- want\n%s", path, got, want)
	}
	return rep
}

func TestFig10OutOfDistribution(t *testing.T) {
	c := tinyCorpus(t)
	rep := sameTwice(t, func() (*Report, error) { return Fig10OutOfDistribution(c, []float64{1, 2, 5}) })
	if !strings.HasPrefix(rep.Title, "Figure 10") || len(rep.Rows) != 3 {
		t.Fatalf("title %q, %d rows", rep.Title, len(rep.Rows))
	}
	// A pair within the proximity counts as correct, so mean accuracy cannot
	// fall as the proximity widens.
	for i := 1; i < len(rep.Rows); i++ {
		if parseFloat(rep.Rows[i][1]) < parseFloat(rep.Rows[i-1][1]) {
			t.Fatalf("mean accuracy falls with proximity:\n%s", rep)
		}
	}
}

func TestFig5dRounds(t *testing.T) {
	diags := []core.EpochDiag{
		{SetSize: 3, Rounds: 5, StopReason: "stability"},
		{SetSize: 3, Rounds: 8, StopReason: "stability"},
		{SetSize: 1, Rounds: 0, StopReason: "singleton"},
	}
	rep := Fig5dBanditRounds(diags)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	empty := Fig5dBanditRounds(nil)
	if len(empty.Rows) != 0 {
		t.Fatal("empty diags should have no rows")
	}
}

func TestTable1(t *testing.T) {
	rep := Table1()
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestLargeCacheScale(t *testing.T) {
	sc := tiny()
	scaled := LargeCacheScale(sc, 5)
	if scaled.Eval.HOCBytes != 5*sc.Eval.HOCBytes {
		t.Fatal("HOC not scaled")
	}
	if scaled.Experts[0].MaxSize != 5*sc.Experts[0].MaxSize {
		t.Fatal("expert sizes not scaled")
	}
	if scaled.Experts[0].Freq != sc.Experts[0].Freq {
		t.Fatal("frequency thresholds must not scale")
	}
}

func TestImprovementsGuards(t *testing.T) {
	got := improvements([]float64{0.5}, []float64{0})
	if got[0] != 0 {
		t.Fatal("zero baseline must not divide")
	}
	got = objImprovements([]float64{-0.4}, []float64{-0.5})
	if got[0] <= 0 {
		t.Fatalf("improving a negative objective should be positive, got %v", got[0])
	}
}

func TestFig2Suite(t *testing.T) {
	sc := tiny()
	reps, err := Fig2Suite(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 5 {
		t.Fatalf("panels = %d, want 5 (2a-2e)", len(reps))
	}
	titles := []string{"2a", "2b", "2c", "2d", "2e"}
	for i, rep := range reps {
		if !strings.Contains(rep.Title, titles[i]) {
			t.Fatalf("panel %d title = %q", i, rep.Title)
		}
		if len(rep.Rows) == 0 {
			t.Fatalf("panel %q has no rows", rep.Title)
		}
	}
	// The two "production windows" must have different optima or different
	// surfaces (the no-one-size-fits-all claim); at minimum, the grids must
	// not be identical.
	same := true
	for r := range reps[0].Rows {
		for c := range reps[0].Rows[r] {
			if reps[0].Rows[r][c] != reps[1].Rows[r][c] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("window 1 and window 2 grids identical — no traffic variation")
	}
}
