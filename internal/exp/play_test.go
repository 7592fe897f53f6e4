package exp

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"darwin/internal/baselines"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// recorder is a baselines.Server that logs where each request was served
// from.
type recorder struct {
	baselines.Server
	results []cache.Result
}

func (r *recorder) Serve(q trace.Request) cache.Result {
	res := r.Server.Serve(q)
	r.results = append(r.results, res)
	return res
}

// TestWarmupExclusionLeavesServesAlone: leaving a trace's warm-up out of the
// reported metrics is a reporting choice, so a scheme played with the
// paper's 10% exclusion must serve every request exactly as it does with
// none. A round that spans the warm-up mark must not take its reward from
// counters reset under it.
func TestWarmupExclusionLeavesServesAlone(t *testing.T) {
	sc := Small()
	// Darwin plays a Figure-4b ensemble trace.
	fig4b := sync.OnceValues(func() (*Corpus, error) {
		base, err := BuildCorpus(sc, "ohr")
		if err != nil {
			return nil, err
		}
		return ScaledCorpus(base, 5)
	})
	darwin := func() (baselines.Server, *trace.Trace, error) {
		c, err := fig4b()
		if err != nil {
			return nil, nil, err
		}
		const name = "mix-image0-download100-seed501-x5.0"
		i := slices.IndexFunc(c.Test, func(tr *trace.Trace) bool { return tr.Name == name })
		if i < 0 {
			return nil, nil, fmt.Errorf("no test trace %s", name)
		}
		h, err := c.Scale.Eval.New(cache.Expert{})
		if err != nil {
			return nil, nil, err
		}
		ctrl, err := core.NewController(c.Model, h, c.Scale.Online)
		return ctrl, c.Test[i], err
	}
	// The eviction-policy selector plays FutureEvictionSelection's trace,
	// with rounds that do not divide the warm-up.
	selector := func() (baselines.Server, *trace.Trace, error) {
		tr, err := tracegen.ImageDownloadMix(50, sc.OnlineTraceLen, sc.Seed+88)
		if err != nil {
			return nil, nil, err
		}
		h, err := sc.Eval.New(cache.Expert{Freq: 2, MaxSize: 50 << 10})
		if err != nil {
			return nil, nil, err
		}
		sel, err := core.NewEvictionSelector(h, core.EvictionSelectorConfig{
			Epoch: sc.OnlineTraceLen + 1, Round: 700,
		})
		return sel, tr, err
	}

	for _, tc := range []struct {
		name  string
		build func() (baselines.Server, *trace.Trace, error)
	}{
		{"darwin-fig4b", darwin},
		{"eviction-selector", selector},
	} {
		t.Run(tc.name, func(t *testing.T) {
			play := func(frac float64) []cache.Result {
				srv, tr, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				r := &recorder{Server: srv}
				baselines.Play(r, tr, frac)
				return r.results
			}
			with, without := play(sc.Eval.WarmupFrac), play(0)
			if len(with) != len(without) {
				t.Fatalf("served %d and %d requests", len(with), len(without))
			}
			first, differ := -1, 0
			for i := range with {
				if with[i] != without[i] {
					differ++
					if first < 0 {
						first = i
					}
				}
			}
			if differ > 0 {
				t.Fatalf("%d of %d serves differ with warm-up exclusion, the first at request %d",
					differ, len(with), first)
			}
		})
	}
}
