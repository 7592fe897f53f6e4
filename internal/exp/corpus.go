package exp

import (
	"sync"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/par"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// Corpus bundles the offline training set, the online test set, and the
// trained Darwin model for one Scale. It is the one owner of what experiments
// derive from it: the held-out dataset, the ensemble set and the
// Darwin-vs-baselines comparison are each computed on first use, at most
// once, whichever goroutine asks first. A Corpus must not be copied.
type Corpus struct {
	Scale   Scale
	Train   []*trace.Trace
	Test    []*trace.Trace
	Dataset *core.Dataset
	Model   *core.Model

	heldOut    lazy[*core.Dataset]
	ensemble   lazy[[]member]
	comparison lazy[*compareOut]
}

// lazy is a value computed by the first get; later calls return its result.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (l *lazy[T]) get(f func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = f() })
	return l.v, l.err
}

// BuildTraces generates the Image:Download mix grids of §6 ("CDN Traces"):
// mixes from 100:0 to 0:100 in MixStep increments, TrainSeeds traces per mix
// for training and TestSeeds for testing.
func BuildTraces(sc Scale) (train, test []*trace.Trace, err error) {
	// Enumerate the (mix, seed, length) jobs serially — the job list defines
	// the output order — then generate the traces in parallel.
	type job struct {
		pct, n int
		seed   int64
		test   bool
	}
	var jobs []job
	for pct := 0; pct <= 100; pct += sc.MixStep {
		for s := 0; s < sc.TrainSeeds; s++ {
			jobs = append(jobs, job{pct: pct, n: sc.OfflineTraceLen, seed: sc.Seed + int64(1000*pct+s)})
		}
		for s := 0; s < sc.TestSeeds; s++ {
			jobs = append(jobs, job{pct: pct, n: sc.OnlineTraceLen, seed: sc.Seed + int64(1000*pct+500+s), test: true})
		}
	}
	traces, err := par.Map(jobs, func(i int, j job) (*trace.Trace, error) {
		return tracegen.ImageDownloadMix(j.pct, j.n, j.seed)
	})
	if err != nil {
		return nil, nil, err
	}
	for i, j := range jobs {
		if j.test {
			test = append(test, traces[i])
		} else {
			train = append(train, traces[i])
		}
	}
	return train, test, nil
}

// BuildCorpus generates traces, evaluates the offline set, and trains the
// Darwin model with the given objective ("" selects OHR).
func BuildCorpus(sc Scale, objective string) (*Corpus, error) {
	obj, err := core.ObjectiveByName(objective)
	if err != nil {
		return nil, err
	}
	train, test, err := BuildTraces(sc)
	if err != nil {
		return nil, err
	}
	// Training features come from warm-up-sized windows so that offline
	// clustering sees the same (window-censored) feature statistics the
	// online controller estimates during N_warmup.
	ds, err := sc.dataset(train)
	if err != nil {
		return nil, err
	}
	model, err := sc.train(ds, obj)
	if err != nil {
		return nil, err
	}
	return &Corpus{Scale: sc, Train: train, Test: test, Dataset: ds, Model: model}, nil
}

// train fits a Darwin model for obj on ds with the scale's clustering knobs.
func (sc Scale) train(ds *core.Dataset, obj core.Objective) (*core.Model, error) {
	return core.Train(ds, core.TrainConfig{
		Objective:   obj,
		NumClusters: sc.NumClusters,
		ThetaPct:    sc.ThetaPct,
		Seed:        sc.Seed,
	})
}

// dataset evaluates the scale's expert grid on traces, with features from
// warm-up-sized windows.
func (sc Scale) dataset(traces []*trace.Trace) (*core.Dataset, error) {
	return core.BuildDataset(traces, core.DatasetConfig{
		Experts:       sc.Experts,
		Eval:          sc.Eval,
		FeatureWindow: sc.Online.Warmup,
	})
}

// heldOutDataset is the corpus's expert grid evaluated on its test traces,
// one record per c.Test trace in order: the held-out records Figure 10
// scores the predictors on, and the hindsight grid the ensemble and the
// static-expert rows read.
func (c *Corpus) heldOutDataset() (*core.Dataset, error) {
	return c.heldOut.get(func() (*core.Dataset, error) { return c.Scale.dataset(c.Test) })
}

// member is one ensemble trace with its hindsight grid: grid[k] is expert k's
// post-warm-up metrics on tr.
type member struct {
	tr   *trace.Trace
	grid []cache.Metrics
}

// ensembleSet groups the test traces by their hindsight-best static expert
// (highest OHR) and keeps the first trace of each group, in expert order
// (§6.1 "Comparison with static baselines"). A corpus without test traces has
// an empty ensemble.
func (c *Corpus) ensembleSet() ([]member, error) {
	return c.ensemble.get(func() ([]member, error) {
		if len(c.Test) == 0 {
			return nil, nil
		}
		ds, err := c.heldOutDataset()
		if err != nil {
			return nil, err
		}
		first := make([]int, len(ds.Experts)) // best expert → 1 + its first test trace
		for ti, rec := range ds.Records {
			if b := ds.BestExpert(rec, core.OHRObjective{}); first[b] == 0 {
				first[b] = ti + 1
			}
		}
		var out []member
		for _, ti := range first {
			if ti > 0 {
				out = append(out, member{tr: c.Test[ti-1], grid: ds.Records[ti-1].Metrics})
			}
		}
		return out, nil
	})
}
