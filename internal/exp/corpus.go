package exp

import (
	"fmt"
	"sync"

	"darwin/internal/core"
	"darwin/internal/par"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// Corpus bundles the offline training set, the online test set, and the
// trained Darwin model for one Scale.
type Corpus struct {
	Scale   Scale
	Train   []*trace.Trace
	Test    []*trace.Trace
	Dataset *core.Dataset
	Model   *core.Model
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
	ds, err := core.BuildDataset(train, core.DatasetConfig{
		Experts:       sc.Experts,
		Eval:          sc.Eval,
		FeatureWindow: sc.Online.Warmup,
	})
	if err != nil {
		return nil, err
	}
	model, err := core.Train(ds, core.TrainConfig{
		Objective:   obj,
		NumClusters: sc.NumClusters,
		ThetaPct:    sc.ThetaPct,
		Seed:        sc.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Corpus{Scale: sc, Train: train, Test: test, Dataset: ds, Model: model}, nil
}

// corpusCache memoises corpora across benchmarks within one process.
// Guarded by corpusMu for callers running inside the engine's worker pool.
var (
	corpusMu    sync.Mutex
	corpusCache = map[string]*Corpus{}
)

// CachedCorpus returns a memoised corpus for (sc, objective); benchmarks for
// different figures share the expensive offline phase.
func CachedCorpus(sc Scale, objective string) (*Corpus, error) {
	key := fmt.Sprintf("%+v|%s", sc, objective)
	corpusMu.Lock()
	c, ok := corpusCache[key]
	corpusMu.Unlock()
	if ok {
		return c, nil
	}
	c, err := BuildCorpus(sc, objective)
	if err != nil {
		return nil, err
	}
	corpusMu.Lock()
	corpusCache[key] = c
	corpusMu.Unlock()
	return c, nil
}
