package cache

import (
	"strings"
	"testing"

	"darwin/internal/par"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

func TestEvaluateWarmupExcluded(t *testing.T) {
	tr := &trace.Trace{Name: "t"}
	for i := 0; i < 100; i++ {
		tr.Requests = append(tr.Requests, trace.Request{ID: 1, Size: 10, Time: int64(i)})
	}
	m, err := Evaluate(tr, Expert{Freq: 1, MaxSize: 100}, EvalConfig{
		HOCBytes: 1000, DCBytes: 10000, WarmupFrac: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 90 {
		t.Fatalf("Requests = %d, want 90 (warm-up excluded)", m.Requests)
	}
	// After warm-up the single object is HOC-resident: all 90 are hits.
	if m.HOCHits != 90 {
		t.Fatalf("HOCHits = %d, want 90", m.HOCHits)
	}
}

func TestEvaluateAllOrder(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 5000, 8)
	if err != nil {
		t.Fatal(err)
	}
	experts := []Expert{
		{Freq: 1, MaxSize: 100 << 10},
		{Freq: 7, MaxSize: 1 << 10},
	}
	ms, err := EvaluateAll(tr, experts, DefaultEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d metrics", len(ms))
	}
	// The permissive expert should admit at least as much as the strict one.
	if ms[0].HOCAdmits < ms[1].HOCAdmits {
		t.Fatalf("permissive expert admitted %d < strict %d", ms[0].HOCAdmits, ms[1].HOCAdmits)
	}
}

func TestEvaluateRejectsBadConfig(t *testing.T) {
	tr := &trace.Trace{Requests: []trace.Request{{ID: 1, Size: 1}}}
	if _, err := Evaluate(tr, Expert{}, EvalConfig{HOCBytes: 0, DCBytes: 1}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestCorrelatedExpertsShareHits(t *testing.T) {
	// Experts sharing a structure should be positively correlated (§4.1):
	// P(j hit | i hit) > P(j hit | i miss) for nested thresholds.
	tr, err := tracegen.ImageDownloadMix(50, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEvalConfig()
	var hs [2]*Hierarchy
	for k, e := range []Expert{{Freq: 2, MaxSize: 10 << 10}, {Freq: 3, MaxSize: 5 << 10}} {
		if hs[k], err = New(Config{HOCBytes: cfg.HOCBytes, DCBytes: cfg.DCBytes, Expert: e}); err != nil {
			t.Fatal(err)
		}
	}
	var iHit, iMiss, jGivenIHit, jGivenIMiss float64
	for _, r := range tr.Requests {
		ri, rj := hs[0].Serve(r), hs[1].Serve(r)
		switch {
		case ri == HOCHit && rj == HOCHit:
			iHit++
			jGivenIHit++
		case ri == HOCHit:
			iHit++
		case rj == HOCHit:
			iMiss++
			jGivenIMiss++
		default:
			iMiss++
		}
	}
	if pHit, pMiss := jGivenIHit/iHit, jGivenIMiss/iMiss; pHit <= pMiss {
		t.Fatalf("expected positive correlation: P(j|i hit)=%.4f P(j|i miss)=%.4f", pHit, pMiss)
	}
}

func TestImageTracePreferHigherFreq(t *testing.T) {
	// §3.1: the Image class is best served with a higher frequency threshold
	// and a small size threshold; a tiny size threshold should beat a huge
	// one because large rare objects pollute the HOC.
	tr, err := tracegen.ImageDownloadMix(100, 60000, 77)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EvalConfig{HOCBytes: 256 << 10, DCBytes: 64 << 20, WarmupFrac: 0.1}
	small, err := Evaluate(tr, Expert{Freq: 4, MaxSize: 2 << 10}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := Evaluate(tr, Expert{Freq: 1, MaxSize: 1 << 20}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if small.OHR() <= huge.OHR() {
		t.Fatalf("image trace: selective expert OHR %.4f should beat permissive %.4f",
			small.OHR(), huge.OHR())
	}
}

// TestEvaluateAllSerialParallelIdentical is the golden equivalence check for
// the engine-backed expert sweep: every expert replays an independent cold
// hierarchy, so worker scheduling must not change a single counter.
func TestEvaluateAllSerialParallelIdentical(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 20_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	experts := Grid([]int{1, 2, 3}, []int64{2 << 10, 50 << 10, 1 << 20})
	cfg := EvalConfig{HOCBytes: 128 << 10, DCBytes: 8 << 20, WarmupFrac: 0.1}

	evaluate := func(p int) ([]Metrics, error) {
		prev := par.SetDefault(p)
		defer par.SetDefault(prev)
		return EvaluateAll(tr, experts, cfg)
	}
	serial, err := evaluate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 16} {
		got, err := evaluate(p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("parallelism %d: expert %s metrics diverge:\n got %+v\nwant %+v",
					p, experts[i], got[i], serial[i])
			}
		}
	}
}

// TestEvaluateAllAggregatesErrors verifies the sweep reports every failing
// expert with its identity, not just the first failure.
func TestEvaluateAllAggregatesErrors(t *testing.T) {
	tr := &trace.Trace{Name: "t", Requests: []trace.Request{{ID: 1, Size: 100}}}
	experts := Grid([]int{1, 2}, []int64{1 << 10})
	// Invalid capacities make every expert evaluation fail.
	_, err := EvaluateAll(tr, experts, EvalConfig{HOCBytes: 0, DCBytes: 0})
	if err == nil {
		t.Fatal("want error for zero capacities")
	}
	for _, e := range experts {
		if !strings.Contains(err.Error(), "expert "+e.String()) {
			t.Fatalf("aggregated error missing expert %s: %v", e, err)
		}
	}
}
