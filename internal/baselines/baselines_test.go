package baselines

import (
	"testing"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/features"
	"darwin/internal/stats"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

func evalCfg() cache.EvalConfig {
	return cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20, WarmupFrac: 0.1}
}

func grid() []cache.Expert {
	return cache.Grid([]int{1, 3, 5}, []int64{2 << 10, 20 << 10, 200 << 10})
}

func mixTrace(t *testing.T, pct, n int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := tracegen.ImageDownloadMix(pct, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPercentileValidation(t *testing.T) {
	if _, err := NewPercentile(PercentileConfig{Window: 100, Eval: evalCfg()}); err == nil {
		t.Error("no experts accepted")
	}
	if _, err := NewPercentile(PercentileConfig{Experts: grid(), Window: 0, Eval: evalCfg()}); err == nil {
		t.Error("zero window accepted")
	}
}

func TestPercentileRedeploys(t *testing.T) {
	p, err := NewPercentile(PercentileConfig{Experts: grid(), Window: 2000, Eval: evalCfg()})
	if err != nil {
		t.Fatal(err)
	}
	tr := mixTrace(t, 0, 6000, 32) // pure download: big objects, popular
	initial := p.hier.Expert()
	Play(p, tr, 0)
	after := p.hier.Expert()
	// Download traffic has large sizes; the 90th size percentile should pull
	// the deployed size threshold to the top of the grid.
	if after.MaxSize < initial.MaxSize {
		t.Fatalf("expert did not move toward larger sizes: %v -> %v", initial, after)
	}
	if after.MaxSize != 200<<10 {
		t.Fatalf("expected max size threshold for download traffic, got %v", after)
	}
}

func TestPercentileMetricsAccumulate(t *testing.T) {
	p, err := NewPercentile(PercentileConfig{Experts: grid(), Window: 1000, Eval: evalCfg()})
	if err != nil {
		t.Fatal(err)
	}
	tr := mixTrace(t, 50, 5000, 33)
	m := Play(p, tr, 0.1)
	if m.Requests != 4500 {
		t.Fatalf("Requests = %d, want 4500", m.Requests)
	}
}

func TestHillClimbingValidation(t *testing.T) {
	if _, err := NewHillClimbing(HillClimbingConfig{Window: 0, Eval: evalCfg()}); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestHillClimbingMoves(t *testing.T) {
	hc, err := NewHillClimbing(HillClimbingConfig{
		Initial: cache.Expert{Freq: 5, MaxSize: 2 << 10},
		DeltaS:  10 << 10,
		Window:  2000,
		Eval:    evalCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := mixTrace(t, 0, 20000, 34) // download: wants lower f, larger s
	Play(hc, tr, 0)
	got := hc.main.Expert()
	start := cache.Expert{Freq: 5, MaxSize: 2 << 10}
	if got == start {
		t.Fatalf("hill climbing never moved from %v", start)
	}
	if got.MaxSize < start.MaxSize {
		t.Fatalf("expected size threshold to grow on download traffic, got %v", got)
	}
}

func TestHillClimbingFloors(t *testing.T) {
	hc, err := NewHillClimbing(HillClimbingConfig{
		Initial: cache.Expert{Freq: 1, MaxSize: 1 << 10},
		Window:  500,
		Eval:    evalCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := mixTrace(t, 100, 5000, 35)
	Play(hc, tr, 0)
	e := hc.main.Expert()
	if e.Freq < 1 || e.MaxSize < 1<<10 {
		t.Fatalf("thresholds fell below floors: %v", e)
	}
}

func TestAdaptSizeValidation(t *testing.T) {
	if _, err := NewAdaptSize(AdaptSizeConfig{Window: 0, Eval: evalCfg()}); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestAdaptSizeRetunes(t *testing.T) {
	as, err := NewAdaptSize(AdaptSizeConfig{Window: 3000, Eval: evalCfg(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	initial := as.c
	tr := mixTrace(t, 100, 10000, 36) // image: tiny objects
	Play(as, tr, 0)
	if as.c == initial {
		t.Log("c unchanged — model considered the initial c optimal (acceptable)")
	}
	if as.c <= 0 {
		t.Fatalf("invalid c %v", as.c)
	}
	if m := as.Metrics(); m.Requests == 0 {
		t.Fatal("no requests recorded")
	}
}

func TestAdaptSizeAdmissionIsSizeBiased(t *testing.T) {
	// Small objects should be admitted far more often than huge ones.
	as, err := NewAdaptSize(AdaptSizeConfig{Window: 1 << 30, Eval: evalCfg(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	serveRepeats := func(id uint64, size int64, times int) int64 {
		before := as.Metrics().HOCAdmits
		for i := 0; i < times; i++ {
			as.Serve(trace.Request{ID: id, Size: size, Time: int64(i)})
		}
		return as.Metrics().HOCAdmits - before
	}
	smallAdmits := serveRepeats(1, 1<<10, 200)
	hugeAdmits := serveRepeats(2, 1<<20, 200)
	if smallAdmits == 0 {
		t.Fatal("small object never admitted")
	}
	if hugeAdmits > smallAdmits {
		t.Fatalf("huge object admitted more often (%d) than small (%d)", hugeAdmits, smallAdmits)
	}
}

func TestModelOHRBehaviour(t *testing.T) {
	objs := []cheObj{
		{lambda: 0.4, size: 1 << 10},
		{lambda: 0.4, size: 2 << 10},
		{lambda: 0.2, size: 1 << 20},
	}
	// With c large enough to admit everything and a huge cache, OHR tends to
	// the total request mass.
	if ohr := modelOHR(objs, 1e12, 1e12); ohr < 0.95 {
		t.Fatalf("unbounded model OHR = %v", ohr)
	}
	// A small cache must do worse than a huge one.
	if modelOHR(objs, 64<<10, 1<<10) >= modelOHR(objs, 64<<10, 1<<30) {
		t.Fatal("smaller cache should have lower modeled OHR")
	}
	if modelOHR(nil, 1, 1) != 0 {
		t.Fatal("empty object set should be 0")
	}
}

func buildDirect(t *testing.T) (*DirectMapping, *core.Dataset) {
	t.Helper()
	var traces []*trace.Trace
	for _, pct := range []int{0, 50, 100} {
		for seed := int64(0); seed < 2; seed++ {
			traces = append(traces, mixTrace(t, pct, 8000, 400+seed+int64(pct)))
		}
	}
	ds, err := core.BuildDataset(traces, core.DatasetConfig{Experts: grid(), Eval: evalCfg()})
	if err != nil {
		t.Fatal(err)
	}
	net, mean, std, err := TrainDirectMapping(ds, core.OHRObjective{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := NewDirectMapping(net, mean, std, ds.Experts, ds.FeatureCfg, DirectMappingConfig{
		Warmup: 1000, Epoch: 8000, Eval: evalCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return dm, ds
}

func TestDirectMappingTrainsAndDeploys(t *testing.T) {
	dm, _ := buildDirect(t)
	tr := mixTrace(t, 100, 6000, 500)
	initial := dm.hier.Expert()
	Play(dm, tr, 0)
	if dm.Metrics().Requests != int64(tr.Len()) {
		t.Fatal("requests not counted")
	}
	// After warm-up a prediction must have been deployed (possibly equal to
	// the initial expert, but the classifier must have run).
	if !dm.deployed {
		t.Fatalf("no deployment after %d requests (initial %v)", tr.Len(), initial)
	}
}

func TestDirectMappingInSampleAccuracy(t *testing.T) {
	dm, ds := buildDirect(t)
	correct := 0
	for _, rec := range ds.Records {
		idx := dm.net.Classify(stats.Standardize(rec.Extended, dm.mean, dm.std))
		if idx == ds.BestExpert(rec, core.OHRObjective{}) {
			correct++
		}
	}
	if correct < len(ds.Records)/2 {
		t.Fatalf("in-sample accuracy %d/%d too low", correct, len(ds.Records))
	}
}

func TestDirectMappingValidation(t *testing.T) {
	_, ds := buildDirect(t)
	net, mean, std, err := TrainDirectMapping(ds, core.OHRObjective{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := features.DefaultConfig()
	if _, err := NewDirectMapping(net, mean, std, ds.Experts, fcfg, DirectMappingConfig{Warmup: 0, Epoch: 10, Eval: evalCfg()}); err == nil {
		t.Error("zero warmup accepted")
	}
	if _, err := NewDirectMapping(net, mean, std, nil, fcfg, DirectMappingConfig{Warmup: 1, Epoch: 10, Eval: evalCfg()}); err == nil {
		t.Error("no experts accepted")
	}
	if _, _, _, err := TrainDirectMapping(&core.Dataset{}, core.OHRObjective{}, 1); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestTinyLFUValidation(t *testing.T) {
	if _, err := NewTinyLFU(TinyLFUConfig{Window: 0, Eval: evalCfg()}); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestTinyLFUAdmitsHotRejectsCold(t *testing.T) {
	tl, err := NewTinyLFU(TinyLFUConfig{Window: 1 << 30, Eval: evalCfg()})
	if err != nil {
		t.Fatal(err)
	}
	// Build a hot object (many requests) so it occupies the HOC.
	for i := 0; i < 10; i++ {
		tl.Serve(trace.Request{ID: 1, Size: 200 << 10, Time: int64(i)})
	}
	if m := tl.Metrics(); m.HOCHits == 0 {
		t.Fatal("hot object never reached the HOC")
	}
	// A cold object (fewer requests than the incumbent) must not displace it
	// even though the HOC is full.
	before := tl.Metrics().HOCAdmits
	for i := 0; i < 3; i++ {
		tl.Serve(trace.Request{ID: 2, Size: 200 << 10, Time: int64(100 + i)})
	}
	if got := tl.Metrics().HOCAdmits; got != before {
		t.Fatalf("cold object admitted over hotter incumbent (%d -> %d admits)", before, got)
	}
}

func TestTinyLFUWindowReset(t *testing.T) {
	tl, err := NewTinyLFU(TinyLFUConfig{Window: 50, Eval: evalCfg()})
	if err != nil {
		t.Fatal(err)
	}
	tr := mixTrace(t, 50, 2000, 71)
	m := Play(tl, tr, 0.1)
	if m.Requests != 1800 {
		t.Fatalf("requests = %d", m.Requests)
	}
	if m.HOCAdmits == 0 {
		t.Fatal("tinylfu admitted nothing")
	}
}

func TestTinyLFUEndToEnd(t *testing.T) {
	tl, err := NewTinyLFU(TinyLFUConfig{Window: 5000, Eval: evalCfg()})
	if err != nil {
		t.Fatal(err)
	}
	tr := mixTrace(t, 100, 20000, 72)
	m := Play(tl, tr, 0.1)
	if m.OHR() <= 0 {
		t.Fatal("no hits")
	}
}
