package core

import (
	"fmt"
	"math"
	"sort"

	"darwin/internal/cache"
	"darwin/internal/cluster"
	"darwin/internal/features"
	"darwin/internal/neural"
)

// TrainConfig configures offline training (steps 1a and 1b of Figure 3).
type TrainConfig struct {
	// Objective selects the reward (default OHRObjective).
	Objective Objective
	// NumClusters is K for K-means (paper: 52; scaled default: ~1 cluster
	// per 4 training traces, at least 2).
	NumClusters int
	// ThetaPct is the expert-set association threshold θ in percent (paper
	// default 1): an expert joins a trace's best set when its reward is
	// within θ% of the trace's best reward.
	ThetaPct float64
	// SkipPredictors skips step 1b entirely — used by θ-sweep studies that
	// only need clustering and expert sets (Figures 5b, 9, 11).
	SkipPredictors bool
	// NoSizeDistribution trains the predictors on the base 15-entry feature
	// vector only, without the bucketised size distribution — the feature
	// ablation of §4.1 ("Adding the size distribution to the features helps
	// provide sharper estimates").
	NoSizeDistribution bool
	// Seed drives clustering and net initialisation.
	Seed int64
}

func (c TrainConfig) withDefaults(numTraces int) TrainConfig {
	if c.Objective == nil {
		c.Objective = OHRObjective{}
	}
	if c.NumClusters <= 0 {
		c.NumClusters = numTraces / 4
		if c.NumClusters < 2 {
			c.NumClusters = 2
		}
	}
	if c.ThetaPct <= 0 {
		c.ThetaPct = 1
	}
	return c
}

// predictorEpochs is how many SGD passes each cross-expert net M_{i,j}
// trains for. The nets are the paper's single fully-connected layer
// (logistic regression, no hidden layer), and a net is trained only for an
// ordered pair that shares some cluster's expert set: those are the only
// pairs the controller ever asks about.
const predictorEpochs = 120

// Model is Darwin's trained offline state: the clustering, the per-cluster
// promising expert sets, the per-cluster mean rewards (σ priors and
// fallbacks), and the cross-expert prediction networks.
type Model struct {
	// Experts is the expert grid.
	Experts []cache.Expert
	// FeatureCfg reproduces the training feature extraction.
	FeatureCfg features.Config
	// Objective is the trained objective.
	Objective Objective
	// Clusters maps feature vectors to clusters.
	Clusters *cluster.Model
	// ExpertSets[c] lists (sorted) expert indices promising for cluster c.
	ExpertSets [][]int
	// MeanReward[c][k] is expert k's mean reward over cluster c's traces.
	MeanReward [][]float64
	// MeanOHR[c][k] is expert k's mean OHR over cluster c's traces (the
	// P(E_i hit) prior used to seed the side-information matrix).
	MeanOHR [][]float64
	// Predictors[i][j] is M_{i,j}; nil when untrained.
	Predictors [][]*neural.Net
	// ScalerMean and ScalerStd standardise extended feature vectors before
	// they reach the predictors (raw features span bytes to microseconds, so
	// unscaled inputs would saturate the sigmoids).
	ScalerMean, ScalerStd []float64
	// PredictorInputs is the number of leading extended-vector entries the
	// predictors consume (the full extended length, or just the base vector
	// under the NoSizeDistribution ablation).
	PredictorInputs int
	// FeatureWindow is the training feature-extraction window; online
	// deployments should use a matching N_warmup so cluster lookup sees the
	// same (window-censored) feature statistics.
	FeatureWindow int
}

// scale standardises (and, under the NoSizeDistribution ablation, truncates)
// an extended feature vector with the training moments. Train, and the
// decoder's shape check, guarantee PredictorInputs scaler entries and an
// extended vector at least that long.
func (m *Model) scale(extended []float64) []float64 {
	out := make([]float64, m.PredictorInputs)
	for i := range out {
		out[i] = (extended[i] - m.ScalerMean[i]) / m.ScalerStd[i]
	}
	return out
}

// Train runs offline steps 1a (clustering and expert-set association) and 1b
// (cross-expert predictor training) over a built dataset.
func Train(ds *Dataset, cfg TrainConfig) (*Model, error) {
	if len(ds.Records) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	cfg = cfg.withDefaults(len(ds.Records))
	k := len(ds.Experts)

	// --- Step 1a: cluster base feature vectors.
	points := make([][]float64, len(ds.Records))
	for i, r := range ds.Records {
		points[i] = r.Features
	}
	cm, err := cluster.Fit(points, cluster.Config{K: cfg.NumClusters, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	// Trace-level best expert sets, then cluster-level unions.
	nc := cm.K()
	setUnion := make([]map[int]bool, nc)
	sumReward := make([][]float64, nc)
	sumOHR := make([][]float64, nc)
	counts := make([]int, nc)
	for c := 0; c < nc; c++ {
		setUnion[c] = make(map[int]bool)
		sumReward[c] = make([]float64, k)
		sumOHR[c] = make([]float64, k)
	}
	for ri, rec := range ds.Records {
		c := cm.Assignments[ri]
		counts[c]++
		rewards := ds.Rewards(rec, cfg.Objective)
		best := rewards[0]
		for _, v := range rewards {
			if v > best {
				best = v
			}
		}
		for ei, v := range rewards {
			sumReward[c][ei] += v
			sumOHR[c][ei] += rec.Metrics[ei].OHR()
			if withinTheta(v, best, cfg.ThetaPct) {
				setUnion[c][ei] = true
			}
		}
	}
	m := &Model{
		Experts:       ds.Experts,
		FeatureCfg:    ds.FeatureCfg,
		Objective:     cfg.Objective,
		Clusters:      cm,
		ExpertSets:    make([][]int, nc),
		MeanReward:    make([][]float64, nc),
		MeanOHR:       make([][]float64, nc),
		FeatureWindow: ds.FeatureWindow,
	}
	for c := 0; c < nc; c++ {
		for ei := range setUnion[c] {
			m.ExpertSets[c] = append(m.ExpertSets[c], ei)
		}
		sort.Ints(m.ExpertSets[c])
		m.MeanReward[c] = make([]float64, k)
		m.MeanOHR[c] = make([]float64, k)
		if counts[c] > 0 {
			for ei := 0; ei < k; ei++ {
				m.MeanReward[c][ei] = sumReward[c][ei] / float64(counts[c])
				m.MeanOHR[c][ei] = sumOHR[c][ei] / float64(counts[c])
			}
		}
	}

	// --- Step 1b: train cross-expert predictors.
	m.Predictors = make([][]*neural.Net, k)
	for i := range m.Predictors {
		m.Predictors[i] = make([]*neural.Net, k)
	}
	if cfg.SkipPredictors {
		return m, nil
	}
	need := make([][]bool, k)
	for i := range need {
		need[i] = make([]bool, k)
	}
	for _, set := range m.ExpertSets {
		for _, i := range set {
			for _, j := range set {
				need[i][j] = i != j
			}
		}
	}
	inDim := len(ds.Records[0].Extended)
	if cfg.NoSizeDistribution {
		inDim = ds.FeatureCfg.VectorLen()
	}
	m.PredictorInputs = inDim
	m.ScalerMean = make([]float64, inDim)
	m.ScalerStd = make([]float64, inDim)
	for _, rec := range ds.Records {
		for d, v := range rec.Extended[:inDim] {
			m.ScalerMean[d] += v
		}
	}
	for d := range m.ScalerMean {
		m.ScalerMean[d] /= float64(len(ds.Records))
	}
	for _, rec := range ds.Records {
		for d, v := range rec.Extended[:inDim] {
			dv := v - m.ScalerMean[d]
			m.ScalerStd[d] += dv * dv
		}
	}
	for d := range m.ScalerStd {
		m.ScalerStd[d] = math.Sqrt(m.ScalerStd[d] / float64(len(ds.Records)))
		if m.ScalerStd[d] == 0 {
			m.ScalerStd[d] = 1
		}
	}
	xs := make([][]float64, len(ds.Records))
	for ri, rec := range ds.Records {
		xs[ri] = m.scale(rec.Extended)
	}
	trainer := neural.Trainer{Epochs: predictorEpochs, Seed: cfg.Seed}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if !need[i][j] {
				continue
			}
			ys := make([][]float64, len(ds.Records))
			for ri, rec := range ds.Records {
				ys[ri] = []float64{rec.CondHit[i][j], rec.CondMiss[i][j]}
			}
			net, err := neural.New(neural.Config{
				Inputs:  inDim,
				Outputs: 2,
				Seed:    cfg.Seed + int64(i)*1000 + int64(j),
			})
			if err != nil {
				return nil, err
			}
			if _, err := trainer.Train(net, xs, ys); err != nil {
				return nil, err
			}
			m.Predictors[i][j] = net
		}
	}
	return m, nil
}

// withinTheta reports whether reward v is within thetaPct percent of best.
// Rewards may be negative (e.g. −BMR), so the tolerance is relative to the
// magnitude of the best reward with a small absolute floor.
func withinTheta(v, best, thetaPct float64) bool {
	tol := thetaPct / 100 * abs(best)
	if tol < 1e-6 {
		tol = 1e-6
	}
	return best-v <= tol
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Lookup assigns a feature vector to its cluster and returns the cluster id
// and the cluster's expert set. An empty set falls back to the cluster's
// best-by-mean-reward expert, and, degenerately, to expert 0.
func (m *Model) Lookup(feat []float64) (clusterID int, set []int) {
	c := m.Clusters.Assign(feat)
	set = m.ExpertSets[c]
	if len(set) == 0 {
		best := 0
		for ei, v := range m.MeanReward[c] {
			if v > m.MeanReward[c][best] {
				best = ei
			}
		}
		set = []int{best}
	}
	return c, set
}

// PredictCond runs M_{i,j} on an extended feature vector, returning
// (P(E_j hit | E_i hit), P(E_j hit | E_i miss)). ok is false when the pair
// has no trained predictor.
func (m *Model) PredictCond(i, j int, extended []float64) (condHit, condMiss float64, ok bool) {
	if i < 0 || j < 0 || i >= len(m.Predictors) || j >= len(m.Predictors) {
		return 0, 0, false
	}
	net := m.Predictors[i][j]
	if net == nil {
		return 0, 0, false
	}
	out := net.Forward(m.scale(extended))
	return out[0], out[1], true
}

// EstimateReward predicts expert j's reward while expert i is deployed with
// observed hit rate obsOHR, per §4.2's fictitious sample construction:
// ohr_j = P(i hit)·P(j hit|i hit) + P(i miss)·P(j hit|i miss), mapped through
// the objective. ok is false without a trained predictor.
func (m *Model) EstimateReward(i, j int, obsOHR float64, extended []float64, prof SizeProfile) (float64, bool) {
	ch, cm, ok := m.PredictCond(i, j, extended)
	if !ok {
		return 0, false
	}
	ohrJ := obsOHR*ch + (1-obsOHR)*cm
	return m.Objective.RewardFromOHR(ohrJ, prof, m.Experts[j]), true
}

// SideVariance computes σ²_ij of §4.1 from predictor outputs and a prior hit
// rate for expert i: σ²_ij = P(i hit)·V_hit + P(i miss)·V_miss with
// V = p(1−p). For i == j the sampling variance of the real observed hit rate
// is p(1−p). The caller rescales by its effective sample count.
func (m *Model) SideVariance(i, j int, priorOHR float64, extended []float64) (float64, bool) {
	if i == j {
		return priorOHR * (1 - priorOHR), true
	}
	ch, cm, ok := m.PredictCond(i, j, extended)
	if !ok {
		return 0, false
	}
	vh := ch * (1 - ch)
	vm := cm * (1 - cm)
	return priorOHR*vh + (1-priorOHR)*vm, true
}
