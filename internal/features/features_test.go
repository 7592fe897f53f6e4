package features

import (
	"math"
	"testing"

	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

func mk(t *testing.T, cfg Config) *Extractor {
	t.Helper()
	e, err := NewExtractor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{NumIAT: -1, NumSD: 1, SizeBuckets: 4, MinSize: 1, MaxSize: 10},
		{NumIAT: 1, NumSD: 1, SizeBuckets: 0, MinSize: 1, MaxSize: 10},
		{NumIAT: 1, NumSD: 1, SizeBuckets: 4, MinSize: 0, MaxSize: 10},
		{NumIAT: 1, NumSD: 1, SizeBuckets: 4, MinSize: 10, MaxSize: 10},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if got := DefaultConfig().VectorLen(); got != 15 {
		t.Fatalf("VectorLen = %d, want 15 (paper's feature vector)", got)
	}
}

func TestAvgSize(t *testing.T) {
	e := mk(t, DefaultConfig())
	e.Observe(trace.Request{ID: 1, Size: 100, Time: 0})
	e.Observe(trace.Request{ID: 2, Size: 300, Time: 1})
	v := e.Vector()
	if v[0] != 200 {
		t.Fatalf("avg size = %v, want 200", v[0])
	}
	if e.requests != 2 {
		t.Fatalf("requests = %d", e.requests)
	}
}

func TestInterArrivalTimes(t *testing.T) {
	cfg := Config{NumIAT: 3, NumSD: 3, SizeBuckets: 4, MinSize: 1, MaxSize: 1 << 20}
	e := mk(t, cfg)
	// Object 1 at t=0,10,30,60: gaps 10,20,30.
	for _, ts := range []int64{0, 10, 30, 60} {
		e.Observe(trace.Request{ID: 1, Size: 5, Time: ts})
	}
	// Object 2 at t=0,20: gap 20 (first gap).
	e.Observe(trace.Request{ID: 2, Size: 5, Time: 0})
	e.Observe(trace.Request{ID: 2, Size: 5, Time: 20})
	v := e.Vector()
	// iat_1 = mean(10, 20) = 15; iat_2 = 20; iat_3 = 30.
	if v[1] != 15 || v[2] != 20 || v[3] != 30 {
		t.Fatalf("iat = %v, want [15 20 30]", v[1:4])
	}
}

func TestStackDistancesDistinctBytes(t *testing.T) {
	cfg := Config{NumIAT: 2, NumSD: 2, SizeBuckets: 4, MinSize: 1, MaxSize: 1 << 20}
	e := mk(t, cfg)
	// Sequence: A B C B A.
	// A's first gap spans B C B; distinct objects between = {B,C} = 20+30=50.
	// B's first gap spans C = 30.
	seq := []trace.Request{
		{ID: 1, Size: 10, Time: 0}, // A
		{ID: 2, Size: 20, Time: 1}, // B
		{ID: 3, Size: 30, Time: 2}, // C
		{ID: 2, Size: 20, Time: 3}, // B again: sd_1 sample = 30
		{ID: 1, Size: 10, Time: 4}, // A again: sd_1 sample = 20+30 = 50
	}
	for _, r := range seq {
		e.Observe(r)
	}
	v := e.Vector()
	sd1 := v[1+cfg.NumIAT]
	if sd1 != 40 { // mean(30, 50)
		t.Fatalf("sd_1 = %v, want 40", sd1)
	}
}

func TestStackDistanceCountsObjectsOnce(t *testing.T) {
	cfg := Config{NumIAT: 1, NumSD: 1, SizeBuckets: 4, MinSize: 1, MaxSize: 1 << 20}
	e := mk(t, cfg)
	// A B B B A: B is requested 3 times between A's two requests but is one
	// distinct object, so A's sample is 20 (not 60). B's own first reuse is
	// immediate (sample 0), so sd_1 = mean(0, 20) = 10.
	seq := []trace.Request{
		{ID: 1, Size: 10, Time: 0},
		{ID: 2, Size: 20, Time: 1},
		{ID: 2, Size: 20, Time: 2},
		{ID: 2, Size: 20, Time: 3},
		{ID: 1, Size: 10, Time: 4},
	}
	for _, r := range seq {
		e.Observe(r)
	}
	sd1 := e.Vector()[2]
	if sd1 != 10 {
		t.Fatalf("sd_1 = %v, want 10 (distinct objects only, averaged over objects)", sd1)
	}
}

func TestImmediateReuseZeroDistance(t *testing.T) {
	cfg := Config{NumIAT: 1, NumSD: 1, SizeBuckets: 4, MinSize: 1, MaxSize: 1 << 20}
	e := mk(t, cfg)
	e.Observe(trace.Request{ID: 1, Size: 10, Time: 0})
	e.Observe(trace.Request{ID: 1, Size: 10, Time: 1})
	if sd := e.Vector()[2]; sd != 0 {
		t.Fatalf("immediate reuse sd = %v, want 0", sd)
	}
}

func TestSizeDistributionSumsToOne(t *testing.T) {
	e := mk(t, DefaultConfig())
	for i := 0; i < 100; i++ {
		e.Observe(trace.Request{ID: uint64(i), Size: int64(64 << (i % 10)), Time: int64(i)})
	}
	var sum float64
	for _, f := range e.SizeDistribution() {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("size distribution sums to %v", sum)
	}
	ext := e.Extended()
	if len(ext) != 15+16 {
		t.Fatalf("Extended length = %d, want 31", len(ext))
	}
}

func TestZeroSizeRequestHandled(t *testing.T) {
	e := mk(t, DefaultConfig())
	e.Observe(trace.Request{ID: 1, Size: 0, Time: 0}) // must not panic on log2(0)
	if e.requests != 1 {
		t.Fatal("request not counted")
	}
}

func TestGrowth(t *testing.T) {
	cfg := Config{NumIAT: 2, NumSD: 2, SizeBuckets: 4, MinSize: 1, MaxSize: 1 << 20}
	e := mk(t, cfg)
	// Push far past the initial 1024-slot tree, interleaving two objects so
	// stack distances remain exercised across growth boundaries.
	for i := 0; i < 5000; i++ {
		e.Observe(trace.Request{ID: uint64(i % 2), Size: 10, Time: int64(i)})
	}
	v := e.Vector()
	if v[0] != 10 {
		t.Fatalf("avg size after growth = %v", v[0])
	}
	// Each object alternates, so every gap has exactly one distinct other
	// object in between: sd = 10.
	if v[1+cfg.NumIAT] != 10 {
		t.Fatalf("sd_1 after growth = %v, want 10", v[1+cfg.NumIAT])
	}
}

func TestGrowthPreservesDistances(t *testing.T) {
	// Same trace through small-then-grown tree vs a naive reference.
	cfg := Config{NumIAT: 1, NumSD: 1, SizeBuckets: 4, MinSize: 1, MaxSize: 1 << 20}
	tr, err := tracegen.ImageDownloadMix(50, 3000, 44)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromTrace(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveSD1(tr)
	if math.Abs(got[2]-want) > 1e-6 {
		t.Fatalf("sd_1 = %v, naive reference = %v", got[2], want)
	}
}

// naiveSD1 computes the average first stack distance by brute force.
func naiveSD1(tr *trace.Trace) float64 {
	var sum float64
	var n int
	occ := map[uint64][]int{}
	for i, r := range tr.Requests {
		occ[r.ID] = append(occ[r.ID], i)
	}
	for _, positions := range occ {
		if len(positions) < 2 {
			continue
		}
		lo, hi := positions[0], positions[1]
		seen := map[uint64]int64{}
		for j := lo + 1; j < hi; j++ {
			seen[tr.Requests[j].ID] = tr.Requests[j].Size
		}
		var d int64
		for _, s := range seen {
			d += s
		}
		sum += float64(d)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestReset(t *testing.T) {
	e := mk(t, DefaultConfig())
	for i := 0; i < 100; i++ {
		e.Observe(trace.Request{ID: uint64(i % 5), Size: 100, Time: int64(i)})
	}
	e.Reset()
	if e.requests != 0 {
		t.Fatal("Reset did not clear request count")
	}
	v := e.Vector()
	for i, x := range v {
		if x != 0 {
			t.Fatalf("vector[%d] = %v after Reset", i, x)
		}
	}
}

func TestFeatureConvergence(t *testing.T) {
	// Fig 5a behaviour: the prefix feature vector converges to the full-trace
	// vector as the prefix grows.
	tr, err := tracegen.ImageDownloadMix(50, 40000, 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	full, err := FromTrace(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	errAt := func(frac float64) float64 {
		prefix, err := FromTrace(tr.Window(0, int(float64(tr.Len())*frac)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return RelativeError(prefix, full)
	}
	e10, e50, e90 := errAt(0.1), errAt(0.5), errAt(0.9)
	if e90 >= e10 {
		t.Fatalf("error did not shrink: 10%%=%.4f 90%%=%.4f", e10, e90)
	}
	if e50 > 1.0 {
		t.Fatalf("error at 50%% unreasonably large: %v", e50)
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError([]float64{1, 2}, []float64{1, 2}) != 0 {
		t.Fatal("identical vectors should have zero error")
	}
	if got := RelativeError([]float64{2}, []float64{1}); got != 1 {
		t.Fatalf("error = %v, want 1", got)
	}
	if got := RelativeError([]float64{5, 1}, []float64{0, 1}); got != 0 {
		t.Fatalf("zero-reference entries should be skipped, got %v", got)
	}
	if !math.IsInf(RelativeError([]float64{1}, []float64{1, 2}), 1) {
		t.Fatal("length mismatch should be +Inf")
	}
	if RelativeError(nil, nil) != 0 {
		t.Fatal("empty vectors should have zero error")
	}
}

func BenchmarkObserve(b *testing.B) {
	tr, err := tracegen.ImageDownloadMix(50, 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewExtractor(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(tr.Requests[i%tr.Len()])
	}
}
