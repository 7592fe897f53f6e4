package core

import (
	"fmt"

	"darwin/internal/cache"
	"darwin/internal/features"
	"darwin/internal/par"
	"darwin/internal/trace"
)

// TraceRecord is the offline evaluation of one training trace: its feature
// vectors, every expert's post-warm-up metrics, and the pairwise conditional
// hit statistics that train the cross-expert predictors.
type TraceRecord struct {
	// Name is the trace name.
	Name string
	// Features is the base feature vector (avg size, inter-arrivals, stack
	// distances).
	Features []float64
	// Extended is Features with the bucketised size distribution appended —
	// the cross-expert predictor input (§4.1).
	Extended []float64
	// Profile is the bucketised size profile used by byte-level objectives.
	Profile SizeProfile
	// Metrics[k] is expert k's evaluation on this trace.
	Metrics []cache.Metrics
	// CondHit[i][j] = P(E_j hit | E_i hit); CondMiss[i][j] = P(E_j hit | E_i miss).
	CondHit, CondMiss [][]float64
}

// Dataset is the offline evaluation of a training corpus.
type Dataset struct {
	// Experts is the expert grid shared by all records.
	Experts []cache.Expert
	// FeatureCfg is the feature extraction configuration.
	FeatureCfg features.Config
	// Eval is the cache configuration used for evaluation.
	Eval cache.EvalConfig
	// FeatureWindow is the per-trace feature-extraction window used when the
	// dataset was built (0 = whole trace); the online warm-up should match.
	FeatureWindow int
	// Records holds one entry per trace.
	Records []*TraceRecord
}

// DatasetConfig configures BuildDataset.
type DatasetConfig struct {
	// Experts is the expert grid (default cache.DefaultGrid()).
	Experts []cache.Expert
	// Eval configures the simulated cache (default cache.DefaultEvalConfig()).
	Eval cache.EvalConfig
	// FeatureWindow caps feature extraction to the first N requests of each
	// trace (0 = whole trace). Setting it to the online phase's N_warmup
	// aligns offline training features with what the online controller can
	// actually observe: inter-arrival and stack-distance averages are
	// censored by the observation window, so mixing window lengths between
	// training and deployment systematically shifts cluster assignment.
	FeatureWindow int
}

func (c DatasetConfig) withDefaults() DatasetConfig {
	if c.Experts == nil {
		c.Experts = cache.DefaultGrid()
	}
	if c.Eval == (cache.EvalConfig{}) {
		c.Eval = cache.DefaultEvalConfig()
	}
	return c
}

// BuildDataset evaluates every expert on every trace (with pairwise joint
// statistics) and extracts the paper's features (features.DefaultConfig).
// This is the expensive offline step; it parallelises across traces, as
// wide as par.Default().
func BuildDataset(traces []*trace.Trace, cfg DatasetConfig) (*Dataset, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("core: no traces")
	}
	cfg = cfg.withDefaults()
	if len(cfg.Experts) == 0 {
		return nil, fmt.Errorf("core: empty expert grid")
	}

	ds := &Dataset{
		Experts:       cfg.Experts,
		FeatureCfg:    features.DefaultConfig(),
		Eval:          cfg.Eval,
		FeatureWindow: cfg.FeatureWindow,
		Records:       make([]*TraceRecord, len(traces)),
	}
	// Fan out over the shared engine: one task per trace, results written to
	// Records[ti] so ordering matches the input; failures are aggregated with
	// trace identity rather than fail-fast.
	err := par.ForEach(len(traces), func(ti int) error {
		rec, err := evaluateTrace(traces[ti], cfg, ds.FeatureCfg)
		if err != nil {
			return fmt.Errorf("core: trace %s: %w", traces[ti].Name, err)
		}
		ds.Records[ti] = rec
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}

// evaluateTrace runs all experts over one trace in lockstep, accumulating
// marginal and pairwise hit counts after warm-up, and extracts features.
func evaluateTrace(tr *trace.Trace, cfg DatasetConfig, fc features.Config) (*TraceRecord, error) {
	k := len(cfg.Experts)
	hier := make([]*cache.Hierarchy, k)
	for i, e := range cfg.Experts {
		h, err := cache.New(cache.Config{
			HOCBytes:    cfg.Eval.HOCBytes,
			DCBytes:     cfg.Eval.DCBytes,
			HOCEviction: cfg.Eval.HOCEviction,
			DCEviction:  cfg.Eval.DCEviction,
			Expert:      e,
		})
		if err != nil {
			return nil, err
		}
		hier[i] = h
	}
	ex, err := features.NewExtractor(fc)
	if err != nil {
		return nil, err
	}

	warm := int(float64(tr.Len()) * cfg.Eval.WarmupFrac)
	hits := make([]int64, k)
	joint := make([][]int64, k) // joint[i][j] = both i and j hit
	for i := range joint {
		joint[i] = make([]int64, k)
	}
	hitSet := make([]int, 0, k)
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
	return rec, nil
}

// Rewards returns the per-expert rewards of record r under obj.
func (ds *Dataset) Rewards(r *TraceRecord, obj Objective) []float64 {
	out := make([]float64, len(ds.Experts))
	for i, m := range r.Metrics {
		out[i] = obj.Reward(m)
	}
	return out
}

// BestExpert returns the index of the best expert for record r under obj.
func (ds *Dataset) BestExpert(r *TraceRecord, obj Objective) int {
	rw := ds.Rewards(r, obj)
	best := 0
	for i, v := range rw {
		if v > rw[best] {
			best = i
		}
	}
	return best
}
