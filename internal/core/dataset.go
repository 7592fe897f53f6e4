package core

import (
	"fmt"
	"math/bits"
	"sync"

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
// This is the expensive offline step. It runs one task per (trace, expert)
// replay plus one feature-extraction task per trace, as wide as
// par.Default(), so a worker keeps one hierarchy hot for a whole trace and a
// single trace spreads over every worker. A trace's replays share one
// cache.Replay, built by the first of them to run and dropped by the last,
// so the layouts alive at once are those of the traces in flight, not the
// corpus's.
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
	// Task t < n*k replays trace t/k under expert t%k into metrics[t] and
	// hits[t]; task n*k+ti extracts trace ti's features into Records[ti].
	// Failures are aggregated with trace identity rather than fail-fast.
	n, k := len(traces), len(cfg.Experts)
	metrics := make([]cache.Metrics, n*k)
	hits := make([][]uint64, n*k)
	replays := make([]sharedReplay, n)
	err := par.ForEach(n*k+n, func(t int) error {
		if t >= n*k {
			ti := t - n*k
			rec, err := extractFeatures(traces[ti], cfg.FeatureWindow, ds.FeatureCfg)
			if err != nil {
				return fmt.Errorf("core: trace %s: %w", traces[ti].Name, err)
			}
			ds.Records[ti] = rec
			return nil
		}
		tr, e := traces[t/k], cfg.Experts[t%k]
		m, set, err := replays[t/k].take(tr, k).Hits(e, cfg.Eval)
		if err != nil {
			return fmt.Errorf("core: trace %s: expert %s: %w", tr.Name, e, err)
		}
		metrics[t], hits[t] = m, set
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ti, rec := range ds.Records {
		lo, hi := ti*k, ti*k+k
		rec.Metrics = metrics[lo:hi:hi]
		rec.CondHit, rec.CondMiss = condStats(rec.Metrics, hits[lo:hi])
	}
	return ds, nil
}

// sharedReplay is one trace's cache.Replay, shared by the trace's k replay
// tasks: the first to take it lays the trace out, and the last to take it
// drops the shared reference, so the Replay is freed when that task ends.
type sharedReplay struct {
	mu    sync.Mutex
	rp    *cache.Replay // guarded by mu
	taken int           // guarded by mu
}

// take returns tr's Replay to one of its k replay tasks.
func (s *sharedReplay) take(tr *trace.Trace, k int) *cache.Replay {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.taken == 0 {
		s.rp = cache.NewReplay(tr)
	}
	rp := s.rp
	if s.taken++; s.taken == k {
		s.rp = nil
	}
	return rp
}

// extractFeatures builds a record's feature vectors and size profile from
// the first window requests of tr (0 = the whole trace).
func extractFeatures(tr *trace.Trace, window int, fc features.Config) (*TraceRecord, error) {
	ex, err := features.NewExtractor(fc)
	if err != nil {
		return nil, err
	}
	if window <= 0 || window > tr.Len() {
		window = tr.Len()
	}
	for _, r := range tr.Requests[:window] {
		ex.Observe(r)
	}
	return &TraceRecord{
		Name:     tr.Name,
		Features: ex.Vector(),
		Extended: ex.Extended(),
		Profile:  NewSizeProfile(ex.SizeDistribution(), fc.MinSize, fc.MaxSize),
	}, nil
}

// condStats computes CondHit and CondMiss from each expert's post-warm-up
// metrics and HOC hit bitset (cache.Replay.Hits): expert i's hits are
// popcount(sets[i]), the joint hits of i and j popcount(sets[i] & sets[j]), and
// m[i].Requests the post-warm-up request count.
func condStats(m []cache.Metrics, sets [][]uint64) (condHit, condMiss [][]float64) {
	k := len(sets)
	hits := make([]int64, k)
	for i, b := range sets {
		hits[i] = popcountAnd(b, b)
	}
	condHit, condMiss = make([][]float64, k), make([][]float64, k)
	for i := range sets {
		condHit[i], condMiss[i] = make([]float64, k), make([]float64, k)
		misses := m[i].Requests - hits[i]
		for j := range sets {
			joint := popcountAnd(sets[i], sets[j])
			if hits[i] > 0 {
				condHit[i][j] = float64(joint) / float64(hits[i])
			}
			if misses > 0 {
				condMiss[i][j] = float64(hits[j]-joint) / float64(misses)
			}
		}
	}
	return condHit, condMiss
}

// popcountAnd counts the bits set in both a and b.
func popcountAnd(a, b []uint64) int64 {
	var n int
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w])
	}
	return int64(n)
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
