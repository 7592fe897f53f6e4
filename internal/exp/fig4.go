package exp

import (
	"fmt"
	"sort"
	"sync"

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
	hier, err := cache.New(cache.Config{
		HOCBytes:    c.Scale.Eval.HOCBytes,
		DCBytes:     c.Scale.Eval.DCBytes,
		HOCEviction: c.Scale.Eval.HOCEviction,
		DCEviction:  c.Scale.Eval.DCEviction,
	})
	if err != nil {
		return cache.Metrics{}, nil, err
	}
	ctrl, err := core.NewController(c.Model, hier, c.Scale.Online)
	if err != nil {
		return cache.Metrics{}, nil, err
	}
	m := baselines.Play(ctrl, tr, c.Scale.Eval.WarmupFrac)
	return m, ctrl.Diags(), nil
}

// BaselineNames lists the adaptive baselines CompareBaselines runs: the
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

// hindsight memoises full-grid evaluations of test traces. Guarded by
// hindsightMu: Hindsight is called from the engine's worker goroutines.
var (
	hindsightMu    sync.Mutex
	hindsightCache = map[string][]cache.Metrics{}
)

// Hindsight evaluates every grid expert on tr (memoised per trace name).
func Hindsight(c *Corpus, tr *trace.Trace) ([]cache.Metrics, error) {
	key := fmt.Sprintf("%s|%d|%d", tr.Name, c.Scale.Eval.HOCBytes, len(c.Scale.Experts))
	hindsightMu.Lock()
	ms, ok := hindsightCache[key]
	hindsightMu.Unlock()
	if ok {
		return ms, nil
	}
	ms, err := cache.EvaluateAll(tr, c.Scale.Experts, c.Scale.Eval)
	if err != nil {
		return nil, err
	}
	hindsightMu.Lock()
	hindsightCache[key] = ms
	hindsightMu.Unlock()
	return ms, nil
}

// resetHindsightCache clears the memo (golden serial/parallel tests use it to
// force both runs through the full evaluation path).
func resetHindsightCache() {
	hindsightMu.Lock()
	hindsightCache = map[string][]cache.Metrics{}
	hindsightMu.Unlock()
}

// EnsembleSet groups the corpus's test traces by their hindsight-best static
// expert and picks one trace per group (§6.1 "Comparison with static
// baselines").
func EnsembleSet(c *Corpus) ([]*trace.Trace, error) {
	// Warm the hindsight memo for every test trace in parallel; the serial
	// grouping below then reads cached grids only.
	if err := par.ForEach(len(c.Test), 0, func(i int) error {
		_, err := Hindsight(c, c.Test[i])
		return err
	}); err != nil {
		return nil, err
	}
	byBest := map[int]*trace.Trace{}
	var order []int
	for _, tr := range c.Test {
		ms, err := Hindsight(c, tr)
		if err != nil {
			return nil, err
		}
		best := 0
		for i, m := range ms {
			if m.OHR() > ms[best].OHR() {
				best = i
			}
		}
		if _, ok := byBest[best]; !ok {
			byBest[best] = tr
			order = append(order, best)
		}
	}
	sort.Ints(order)
	out := make([]*trace.Trace, 0, len(order))
	for _, b := range order {
		out = append(out, byBest[b])
	}
	return out, nil
}

// ComparisonResult holds one scheme's OHR per ensemble trace.
type ComparisonResult struct {
	// Scheme names the policy.
	Scheme string
	// OHR[t] is the scheme's hit rate on ensemble trace t.
	OHR []float64
}

// compareCache memoises the expensive ensemble comparison per corpus.
// Guarded by compareMu.
var (
	compareMu    sync.Mutex
	compareCache = map[*Corpus]*compareOut{}
)

type compareOut struct {
	results []ComparisonResult
	diags   []core.EpochDiag
}

// compare runs Darwin and every baseline over the corpus's ensemble set
// (memoised per corpus so Figure 4 and Table 2 share one run).
func compare(c *Corpus) (*compareOut, error) {
	compareMu.Lock()
	out, ok := compareCache[c]
	compareMu.Unlock()
	if ok {
		return out, nil
	}
	out, err := compareFresh(c)
	if err != nil {
		return nil, err
	}
	compareMu.Lock()
	compareCache[c] = out
	compareMu.Unlock()
	return out, nil
}

// compareFresh performs the full comparison without memoisation. Every leg —
// Darwin per ensemble trace, the static-expert grids, and each (baseline,
// trace) pair — is an independent deterministic replay, so all of them fan
// out over the engine; results are assembled in fixed scheme/trace order, so
// the output is bit-identical to the serial path.
func compareFresh(c *Corpus) (*compareOut, error) {
	ensemble, err := EnsembleSet(c)
	if err != nil {
		return nil, err
	}
	if len(ensemble) == 0 {
		return nil, fmt.Errorf("exp: empty ensemble")
	}

	// Darwin: one online run per ensemble trace, diagnostics kept per trace
	// so the flattened order matches the serial loop.
	type darwinOut struct {
		ohr   float64
		diags []core.EpochDiag
	}
	darwinRuns, err := par.Map(ensemble, 0, func(i int, tr *trace.Trace) (darwinOut, error) {
		m, diags, err := RunDarwin(c, tr)
		if err != nil {
			return darwinOut{}, fmt.Errorf("darwin on %s: %w", tr.Name, err)
		}
		return darwinOut{ohr: m.OHR(), diags: diags}, nil
	})
	if err != nil {
		return nil, err
	}
	darwin := ComparisonResult{Scheme: "darwin"}
	var allDiags []core.EpochDiag
	for _, d := range darwinRuns {
		darwin.OHR = append(darwin.OHR, d.ohr)
		allDiags = append(allDiags, d.diags...)
	}
	results := []ComparisonResult{darwin}

	// Static experts (full grid; EnsembleSet already warmed the hindsight
	// memo for every ensemble trace).
	for ei, e := range c.Scale.Experts {
		r := ComparisonResult{Scheme: e.String()}
		for _, tr := range ensemble {
			ms, err := Hindsight(c, tr)
			if err != nil {
				return nil, err
			}
			r.OHR = append(r.OHR, ms[ei].OHR())
		}
		results = append(results, r)
	}

	// Adaptive baselines: flatten the (baseline, trace) matrix into one task
	// list; each task constructs its own server, so no state is shared.
	names := BaselineNames()
	type pair struct {
		name string
		tr   *trace.Trace
	}
	pairs := make([]pair, 0, len(names)*len(ensemble))
	for _, name := range names {
		for _, tr := range ensemble {
			pairs = append(pairs, pair{name: name, tr: tr})
		}
	}
	ohrs, err := par.Map(pairs, 0, func(i int, p pair) (float64, error) {
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
}

// Fig4Compare reproduces Figure 4a/4b: Darwin vs static and adaptive
// baselines over the ensemble set. It returns the report, the raw
// comparison, and Darwin's epoch diagnostics (reused by Figure 5d).
func Fig4Compare(c *Corpus, title string) (*Report, []ComparisonResult, []core.EpochDiag, error) {
	out, err := compare(c)
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
	if ensemble, err := EnsembleSet(c); err == nil && len(ensemble) > 0 {
		bounds, _ := par.Map(ensemble, 0, func(i int, tr *trace.Trace) (float64, error) {
			return cache.OfflineOptimalOHR(tr, c.Scale.Eval.HOCBytes, c.Scale.Eval.WarmupFrac), nil
		})
		if mb := stats.Mean(bounds); mb > 0 {
			rep.AddNote("clairvoyant HOC bound (Belady): mean OHR %.4f; darwin reaches %.1f%% of it",
				mb, 100*stats.Mean(darwin.OHR)/mb)
		}
	}
	return rep, out.results, out.diags, nil
}

// Table2 reproduces Appendix Table 2: Darwin's average improvement rate
// against every baseline.
func Table2(c *Corpus) (*Report, error) {
	res, err := compare(c)
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

// HindsightTrace evaluates the scale's grid on one trace without a corpus.
func HindsightTrace(tr *trace.Trace, sc Scale) ([]cache.Metrics, error) {
	return cache.EvaluateAll(tr, sc.Experts, sc.Eval)
}
