package cache

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// serveHits is Replay.Hits's reference: a plain Hierarchy.Serve loop over
// tr, one upsert per request, with the warm-up subtracted at its mark.
func serveHits(tr *trace.Trace, e Expert, cfg EvalConfig) (Metrics, []uint64, error) {
	h, err := cfg.New(e)
	if err != nil {
		return Metrics{}, nil, err
	}
	hits := make([]uint64, (tr.Len()+63)/64)
	warm := int(float64(tr.Len()) * cfg.WarmupFrac)
	var atWarm Metrics
	for i, r := range tr.Requests {
		if i == warm {
			atWarm = h.Metrics()
		}
		if h.Serve(r) == HOCHit && i >= warm {
			hits[i>>6] |= 1 << (i & 63)
		}
	}
	return h.Metrics().Sub(atWarm), hits, nil
}

// replayDiff returns how p.Hits differs from serveHits for e under cfg, or
// nil when it does not.
func replayDiff(p *Replay, tr *trace.Trace, e Expert, cfg EvalConfig) error {
	want, wantHits, err := serveHits(tr, e, cfg)
	if err != nil {
		return err
	}
	got, gotHits, err := p.Hits(e, cfg)
	switch {
	case err != nil:
		return err
	case got != want:
		return fmt.Errorf("%s, %s, hoc %s: Replay.Hits metrics\n got %+v\nwant %+v", tr.Name, e, cfg.HOCEviction, got, want)
	case !reflect.DeepEqual(gotHits, wantHits):
		return fmt.Errorf("%s, %s, hoc %s: Replay.Hits hit bitset differs from Serve's", tr.Name, e, cfg.HOCEviction)
	}
	return nil
}

// TestReplayMatchesServe holds Replay.Hits to the plain Serve loop under
// every HOC eviction policy, on an empty trace, a single id and three class
// mixes, with every expert's replay of a trace running concurrently on one
// Replay (twice over, so pooled record tables are reused mid-run).
func TestReplayMatchesServe(t *testing.T) {
	one := &trace.Trace{Name: "single-id"}
	for i := 0; i < 300; i++ {
		one.Requests = append(one.Requests, trace.Request{ID: 7, Size: 4 << 10, Time: int64(i)})
	}
	traces := []*trace.Trace{{Name: "empty"}, one}
	for i, pct := range []int{0, 50, 100} {
		tr, err := tracegen.ImageDownloadMix(pct, 6000+i, int64(60+i))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	experts := Grid([]int{1, 2, 4}, []int64{2 << 10, 50 << 10, 1 << 20})
	for _, policy := range evictionPolicies {
		// Small levels, so both evict throughout.
		cfg := EvalConfig{HOCBytes: 96 << 10, DCBytes: 2 << 20, WarmupFrac: 0.1,
			HOCEviction: policy}
		for _, tr := range traces {
			p := NewReplay(tr)
			var wg sync.WaitGroup
			for range 2 {
				for _, e := range experts {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := replayDiff(p, tr, e, cfg); err != nil {
							t.Error(err)
						}
					}()
				}
			}
			wg.Wait()
		}
	}
}

// FuzzReplayMatchesServe decodes a trace — two bytes per request, the id and
// a size byte — and holds Replay.Hits to the plain Serve loop on it under
// every HOC eviction policy, for a permissive and a second-hit expert.
func FuzzReplayMatchesServe(f *testing.F) {
	f.Add([]byte{3, 0, 3, 0, 3, 0, 40, 9, 40, 9, 40, 9, 77, 2, 3, 0, 77, 2, 77, 2, 5, 200})
	f.Add([]byte{1, 250, 2, 250, 3, 250, 1, 250, 2, 250, 3, 250, 4, 1, 1, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &trace.Trace{Name: "fuzz"}
		for i := 0; i+1 < len(data); i += 2 {
			id := uint64(data[i] % 40)
			tr.Requests = append(tr.Requests, trace.Request{ID: id, Size: fuzzSize(id, data[i+1]), Time: int64(i)})
		}
		p := NewReplay(tr)
		for _, policy := range evictionPolicies {
			cfg := EvalConfig{HOCBytes: 400, DCBytes: 1600, WarmupFrac: 0.25,
				HOCEviction: policy}
			for _, e := range []Expert{{Freq: 1, MaxSize: 300}, {Freq: 2, MaxSize: 300}} {
				if err := replayDiff(p, tr, e, cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestReplayHitsAllocs pins what a replay allocates once its Replay has run
// before: the hierarchy, its two levels and their arenas' growth, and the hit
// bitset — no record table, which a pooled copy of the layout replaces. A
// record table allocated per replay would add two to each count. A single
// replay can count two more when a GC ran since the last: the pool then
// re-allocates its per-P array. The average over 20 runs, which
// AllocsPerRun truncates, absorbs that, and each count is exact: it held in
// every one of 1,000 runs of this test.
func TestReplayHitsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's sync.Pool drops pooled values at random")
	}
	tr, err := tracegen.ImageDownloadMix(50, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := NewReplay(tr)
	want := map[string]float64{"lru": 8, "fifo": 8, "lfu": 17, "s4lru": 9, "gdsf": 19}
	for _, policy := range evictionPolicies {
		cfg := EvalConfig{HOCBytes: 96 << 10, DCBytes: 2 << 20, WarmupFrac: 0.1,
			HOCEviction: policy}
		e := Expert{Freq: 2, MaxSize: 50 << 10}
		if _, _, err := p.Hits(e, cfg); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, _, err := p.Hits(e, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if got != want[policy] {
			t.Errorf("%s: a second Replay.Hits allocates %v times, want %v", policy, got, want[policy])
		}
	}
}

// TestEvalConfigWarmupFrac: a warm-up fraction outside [0, 1) is an error
// wherever a replay or baseline builds its cache, since at 1 or above (or
// NaN) the warm-up would silently stay in the metrics.
func TestEvalConfigWarmupFrac(t *testing.T) {
	tr := &trace.Trace{Name: "t", Requests: []trace.Request{{ID: 1, Size: 10}, {ID: 1, Size: 10}}}
	for _, c := range []struct {
		frac float64
		ok   bool
	}{
		{0, true}, {0.1, true}, {0.999, true},
		{1, false}, {1.5, false}, {-0.1, false},
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		t.Run(fmt.Sprint(c.frac), func(t *testing.T) {
			cfg := DefaultEvalConfig()
			cfg.WarmupFrac = c.frac
			_, errNew := cfg.New(Expert{})
			_, errEval := Evaluate(tr, Expert{}, cfg)
			_, errAll := EvaluateAll(tr, []Expert{{}}, cfg)
			for name, err := range map[string]error{"New": errNew, "Evaluate": errEval, "EvaluateAll": errAll} {
				if (err == nil) != c.ok {
					t.Errorf("%s with warm-up %v: err = %v, want ok = %v", name, c.frac, err, c.ok)
				}
			}
		})
	}
}
