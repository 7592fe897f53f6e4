package core

import (
	"reflect"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/features"
	"darwin/internal/par"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// lockstepRecord is the reference evaluator BuildDataset's per-(trace,
// expert) replays must reproduce: every expert steps through the trace in
// lockstep, and the pairwise joint hits are counted request by request.
func lockstepRecord(t *testing.T, tr *trace.Trace, cfg DatasetConfig, fc features.Config) *TraceRecord {
	t.Helper()
	k := len(cfg.Experts)
	hier := make([]*cache.Hierarchy, k)
	for i, e := range cfg.Experts {
		h, err := cache.New(cache.Config{
			HOCBytes:    cfg.Eval.HOCBytes,
			DCBytes:     cfg.Eval.DCBytes,
			HOCEviction: cfg.Eval.HOCEviction,
			Expert:      e,
		})
		if err != nil {
			t.Fatal(err)
		}
		hier[i] = h
	}
	ex, err := features.NewExtractor(fc)
	if err != nil {
		t.Fatal(err)
	}

	warm := int(float64(tr.Len()) * cfg.Eval.WarmupFrac)
	hits := make([]int64, k)
	joint := make([][]int64, k)
	for i := range joint {
		joint[i] = make([]int64, k)
	}
	var hitSet []int
	var counted int64
	featureWindow := cfg.FeatureWindow
	if featureWindow <= 0 || featureWindow > tr.Len() {
		featureWindow = tr.Len()
	}
	for ri, r := range tr.Requests {
		if ri < featureWindow {
			ex.Observe(r)
		}
		if ri == warm {
			for _, h := range hier {
				h.ResetMetrics()
			}
		}
		hitSet = hitSet[:0]
		for i, h := range hier {
			if h.Serve(r) == cache.HOCHit && ri >= warm {
				hitSet = append(hitSet, i)
			}
		}
		if ri < warm {
			continue
		}
		counted++
		for _, i := range hitSet {
			hits[i]++
			for _, j := range hitSet {
				joint[i][j]++
			}
		}
	}

	rec := &TraceRecord{
		Name:     tr.Name,
		Features: ex.Vector(),
		Extended: ex.Extended(),
		Profile:  NewSizeProfile(ex.SizeDistribution(), fc.MinSize, fc.MaxSize),
		Metrics:  make([]cache.Metrics, k),
		CondHit:  make([][]float64, k),
		CondMiss: make([][]float64, k),
	}
	for i, h := range hier {
		rec.Metrics[i] = h.Metrics()
	}
	for i := 0; i < k; i++ {
		rec.CondHit[i] = make([]float64, k)
		rec.CondMiss[i] = make([]float64, k)
		misses := counted - hits[i]
		for j := 0; j < k; j++ {
			if hits[i] > 0 {
				rec.CondHit[i][j] = float64(joint[i][j]) / float64(hits[i])
			}
			if misses > 0 {
				rec.CondMiss[i][j] = float64(hits[j]-joint[i][j]) / float64(misses)
			}
		}
	}
	return rec
}

// TestBuildDatasetMatchesLockstep holds every TraceRecord BuildDataset
// produces equal to the lockstep oracle's, at par widths 1 and 2, over
// traces whose lengths are not multiples of the bitset word.
func TestBuildDatasetMatchesLockstep(t *testing.T) {
	var traces []*trace.Trace
	for i, mix := range []struct{ pct, n int }{{100, 6001}, {50, 4500}, {0, 5003}} {
		tr, err := tracegen.ImageDownloadMix(mix.pct, mix.n, int64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	lru := testEval()
	noWarmup := lru
	noWarmup.WarmupFrac = 0
	// The largest warm-up a config may ask for leaves the last two or three
	// requests of each trace counted (a fraction of 1 is an error).
	lateWarmup := lru
	lateWarmup.WarmupFrac = 0.9995
	s4 := lru
	s4.HOCEviction = "s4lru"
	cases := []struct {
		name string
		cfg  DatasetConfig
	}{
		{"window", DatasetConfig{Experts: testExperts(), Eval: lru, FeatureWindow: 2000}},
		{"no-warmup", DatasetConfig{Experts: testExperts(), Eval: noWarmup}},
		{"late-warmup", DatasetConfig{Experts: testExperts(), Eval: lateWarmup}},
		{"window-past-end", DatasetConfig{Experts: testExperts(), Eval: lru, FeatureWindow: 1 << 20}},
		{"s4lru", DatasetConfig{Experts: testExperts()[:4], Eval: s4, FeatureWindow: 3000}},
	}
	for _, width := range []int{1, 2} {
		prev := par.SetDefault(width)
		for _, c := range cases {
			ds, err := BuildDataset(traces, c.cfg)
			if err != nil {
				t.Fatalf("width %d, %s: %v", width, c.name, err)
			}
			for ti, tr := range traces {
				want := lockstepRecord(t, tr, c.cfg, ds.FeatureCfg)
				if got := ds.Records[ti]; !reflect.DeepEqual(got, want) {
					t.Errorf("width %d, %s, trace %s: record differs from the lockstep oracle\ngot  %+v\nwant %+v",
						width, c.name, tr.Name, got, want)
				}
			}
		}
		par.SetDefault(prev)
	}
}

// TestSharedReplayDroppedByLastTake: a trace's k replay tasks get one
// Replay, and the last of them leaves no reference to it behind, so a
// corpus's layouts do not outlive their traces' replays.
func TestSharedReplayDroppedByLastTake(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	var s sharedReplay
	first := s.take(tr, 3)
	if first == nil {
		t.Fatal("first take returned no Replay")
	}
	if second := s.take(tr, 3); second != first || s.rp == nil {
		t.Fatalf("second take: got %p (shared %p), want %p, still shared", second, s.rp, first)
	}
	if last := s.take(tr, 3); last != first || s.rp != nil {
		t.Fatalf("last take: got %p (shared %p), want %p and nothing shared", last, s.rp, first)
	}
}
