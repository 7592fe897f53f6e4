package exp

import (
	"fmt"

	"darwin/internal/baselines"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/par"
	"darwin/internal/stats"
	"darwin/internal/trace"
)

// RunDarwin plays tr through a fresh Darwin controller and returns its
// post-warm-up metrics and the per-epoch diagnostics.
func RunDarwin(c *Corpus, tr *trace.Trace) (cache.Metrics, []core.EpochDiag, error) {
	return runDarwin(c, c.Model, c.Scale.Online, tr)
}

// runDarwin is RunDarwin over model with online configuration oc.
func runDarwin(c *Corpus, model *core.Model, oc core.OnlineConfig, tr *trace.Trace) (cache.Metrics, []core.EpochDiag, error) {
	hier, err := c.Scale.Eval.New(cache.Expert{})
	if err != nil {
		return cache.Metrics{}, nil, err
	}
	ctrl, err := core.NewController(model, hier, oc)
	if err != nil {
		return cache.Metrics{}, nil, err
	}
	m := baselines.Play(ctrl, tr, c.Scale.Eval.WarmupFrac)
	return m, ctrl.Diags(), nil
}

// darwinRun is Darwin's result on one ensemble trace.
type darwinRun struct {
	m     cache.Metrics
	diags []core.EpochDiag
}

// runEnsemble runs Darwin over model with online configuration oc on every
// ensemble trace, one task per trace, results in ensemble order. It is the
// one place an empty ensemble is rejected.
func (c *Corpus) runEnsemble(model *core.Model, oc core.OnlineConfig) ([]member, []darwinRun, error) {
	ensemble, err := c.ensembleSet()
	if err != nil {
		return nil, nil, err
	}
	if len(ensemble) == 0 {
		return nil, nil, fmt.Errorf("exp: empty ensemble")
	}
	runs, err := par.Map(ensemble, func(i int, e member) (darwinRun, error) {
		m, diags, err := runDarwin(c, model, oc, e.tr)
		if err != nil {
			return darwinRun{}, fmt.Errorf("darwin on %s: %w", e.tr.Name, err)
		}
		return darwinRun{m: m, diags: diags}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ensemble, runs, nil
}

// BaselineNames lists the adaptive baselines the comparison runs: the
// paper's Figure-4 legend (P, HC-Δs, Direct, AS) plus TinyLFU as an extra
// frequency-admission baseline from the paper's related work [17].
func BaselineNames() []string {
	return []string{"percentile", "hillclimbing-1k", "hillclimbing-10k", "directmapping", "adaptsize", "tinylfu"}
}

// NewBaseline constructs a named adaptive baseline sized for the corpus.
func NewBaseline(name string, c *Corpus) (baselines.Server, error) {
	sc := c.Scale
	percentileWindow := sc.OnlineTraceLen / 20
	if percentileWindow < 1000 {
		percentileWindow = 1000
	}
	hcWindow := sc.OnlineTraceLen / 20
	if hcWindow < 1000 {
		hcWindow = 1000
	}
	switch name {
	case "percentile":
		return baselines.NewPercentile(baselines.PercentileConfig{
			Experts: sc.Experts,
			Window:  percentileWindow,
			Eval:    sc.Eval,
		})
	case "hillclimbing-1k", "hillclimbing-10k":
		ds := int64(1 << 10)
		if name == "hillclimbing-10k" {
			ds = 10 << 10
		}
		return baselines.NewHillClimbing(baselines.HillClimbingConfig{
			Initial: sc.Experts[len(sc.Experts)/2],
			DeltaS:  ds,
			Window:  hcWindow,
			Eval:    sc.Eval,
		})
	case "adaptsize":
		return baselines.NewAdaptSize(baselines.AdaptSizeConfig{
			Window: hcWindow,
			Eval:   sc.Eval,
			Seed:   sc.Seed,
		})
	case "tinylfu":
		return baselines.NewTinyLFU(baselines.TinyLFUConfig{
			Window: hcWindow,
			Eval:   sc.Eval,
		})
	case "directmapping":
		net, mean, std, err := baselines.TrainDirectMapping(c.Dataset, c.Model.Objective, sc.Seed)
		if err != nil {
			return nil, err
		}
		return baselines.NewDirectMapping(net, mean, std, sc.Experts, c.Dataset.FeatureCfg,
			baselines.DirectMappingConfig{
				Warmup: sc.Online.Warmup,
				Epoch:  sc.Online.Epoch,
				Eval:   sc.Eval,
			})
	}
	return nil, fmt.Errorf("exp: unknown baseline %q", name)
}

// ComparisonResult holds one scheme's OHR per ensemble trace.
type ComparisonResult struct {
	// Scheme names the policy.
	Scheme string
	// OHR[t] is the scheme's hit rate on ensemble trace t.
	OHR []float64
}

// compareOut is a corpus's comparison: one result per scheme, Darwin first,
// then the static experts and the adaptive baselines, and Darwin's epoch
// diagnostics in ensemble order.
type compareOut struct {
	results []ComparisonResult
	diags   []core.EpochDiag
}

// compare runs Darwin and every baseline over the corpus's ensemble set, once
// per corpus, so Figure 4 and Table 2 share one run. Every leg — Darwin per
// ensemble trace and each (baseline, trace) pair — is an independent
// deterministic replay, so all of them fan out over the engine; the static
// experts' rows are the ensemble's hindsight grids. Results are assembled in
// fixed scheme/trace order, so the output is bit-identical to the serial path.
func (c *Corpus) compare() (*compareOut, error) {
	return c.comparison.get(func() (*compareOut, error) {
		ensemble, runs, err := c.runEnsemble(c.Model, c.Scale.Online)
		if err != nil {
			return nil, err
		}
		darwin := ComparisonResult{Scheme: "darwin"}
		var allDiags []core.EpochDiag
		for _, r := range runs {
			darwin.OHR = append(darwin.OHR, r.m.OHR())
			allDiags = append(allDiags, r.diags...)
		}
		results := []ComparisonResult{darwin}
		for ei, e := range c.Scale.Experts {
			r := ComparisonResult{Scheme: e.String()}
			for _, m := range ensemble {
				r.OHR = append(r.OHR, m.grid[ei].OHR())
			}
			results = append(results, r)
		}

		// Adaptive baselines: flatten the (baseline, trace) matrix into one
		// task list; each task constructs its own server, so no state is
		// shared.
		names := BaselineNames()
		type pair struct {
			name string
			tr   *trace.Trace
		}
		pairs := make([]pair, 0, len(names)*len(ensemble))
		for _, name := range names {
			for _, m := range ensemble {
				pairs = append(pairs, pair{name: name, tr: m.tr})
			}
		}
		ohrs, err := par.Map(pairs, func(i int, p pair) (float64, error) {
			srv, err := NewBaseline(p.name, c)
			if err != nil {
				return 0, fmt.Errorf("baseline %s: %w", p.name, err)
			}
			m := baselines.Play(srv, p.tr, c.Scale.Eval.WarmupFrac)
			return m.OHR(), nil
		})
		if err != nil {
			return nil, err
		}
		for ni, name := range names {
			results = append(results, ComparisonResult{
				Scheme: name,
				OHR:    ohrs[ni*len(ensemble) : (ni+1)*len(ensemble)],
			})
		}
		return &compareOut{results: results, diags: allDiags}, nil
	})
}

// Fig4Compare reproduces Figure 4a/4b: Darwin vs static and adaptive
// baselines over the ensemble set. It returns the report, the raw
// comparison, and Darwin's epoch diagnostics (reused by Figure 5d).
func Fig4Compare(c *Corpus, title string) (*Report, []ComparisonResult, []core.EpochDiag, error) {
	out, err := c.compare()
	if err != nil {
		return nil, nil, nil, err
	}
	ensemble, err := c.ensembleSet()
	if err != nil {
		return nil, nil, nil, err
	}
	darwin := out.results[0]
	rep := &Report{
		Title:  title,
		Header: []string{"scheme", "mean OHR", "min impr%", "median impr%", "max impr%"},
	}
	for _, r := range out.results[1:] {
		imps := improvements(darwin.OHR, r.OHR)
		rep.AddRow(r.Scheme, f4(stats.Mean(r.OHR)),
			f2(minOf(imps)), f2(stats.Percentile(imps, 50)), f2(maxOf(imps)))
	}
	rep.AddNote("darwin mean OHR %.4f over %d ensemble traces", stats.Mean(darwin.OHR), len(darwin.OHR))
	// R1 reference point: the clairvoyant (Belady-style) HOC bound.
	bounds, _ := par.Map(ensemble, func(i int, m member) (float64, error) {
		return cache.OfflineOptimalOHR(m.tr, c.Scale.Eval.HOCBytes, c.Scale.Eval.WarmupFrac), nil
	})
	if mb := stats.Mean(bounds); mb > 0 {
		rep.AddNote("clairvoyant HOC bound (Belady): mean OHR %.4f; darwin reaches %.1f%% of it",
			mb, 100*stats.Mean(darwin.OHR)/mb)
	}
	return rep, out.results, out.diags, nil
}

// Table2 reproduces Appendix Table 2: Darwin's average improvement rate
// against every baseline.
func Table2(c *Corpus) (*Report, error) {
	res, err := c.compare()
	if err != nil {
		return nil, err
	}
	darwin := res.results[0]
	out := &Report{
		Title:  "Table 2: average improvement rate of Darwin relative to baselines",
		Header: []string{"baseline", "avg improvement %"},
	}
	for _, r := range res.results[1:] {
		out.AddRow(r.Scheme, f2(stats.Mean(improvements(darwin.OHR, r.OHR))))
	}
	return out, nil
}

// improvements computes Darwin's percentage improvement over a baseline per
// ensemble trace.
func improvements(darwin, baseline []float64) []float64 {
	out := make([]float64, len(darwin))
	for i := range darwin {
		if baseline[i] <= 0 {
			out[i] = 0
			continue
		}
		out[i] = (darwin[i] - baseline[i]) / baseline[i] * 100
	}
	return out
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
