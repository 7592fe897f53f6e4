package core

import (
	"encoding/json"
	"fmt"
	"io"

	"darwin/internal/cache"
	"darwin/internal/cluster"
	"darwin/internal/features"
	"darwin/internal/neural"
	"darwin/internal/persist"
)

// ModelMagic identifies a framed model file; ModelFormatVersion is the frame
// format version (v2 = persist-framed JSON with checksum; v1 was bare JSON).
const (
	ModelMagic         = "DRWNMODL"
	ModelFormatVersion = 2
)

// modelJSON is the on-disk form of a trained Model. The objective is encoded
// by name (+ parameters) because Objective is an interface.
type modelJSON struct {
	Version         int             `json:"version"`
	Experts         []cache.Expert  `json:"experts"`
	FeatureCfg      features.Config `json:"feature_cfg"`
	Objective       string          `json:"objective"`
	CombinedK       float64         `json:"combined_k,omitempty"`
	Clusters        *cluster.Model  `json:"clusters"`
	ExpertSets      [][]int         `json:"expert_sets"`
	MeanReward      [][]float64     `json:"mean_reward"`
	MeanOHR         [][]float64     `json:"mean_ohr"`
	Predictors      [][]*neural.Net `json:"predictors"`
	ScalerMean      []float64       `json:"scaler_mean"`
	ScalerStd       []float64       `json:"scaler_std"`
	PredictorInputs int             `json:"predictor_inputs"`
	FeatureWindow   int             `json:"feature_window"`
}

const modelVersion = 1

// modelToJSON converts a Model to its serialisable form. It is shared by
// WriteModel and the checkpoint encoder.
func modelToJSON(m *Model) (modelJSON, error) {
	mj := modelJSON{
		Version:         modelVersion,
		Experts:         m.Experts,
		FeatureCfg:      m.FeatureCfg,
		Clusters:        m.Clusters,
		ExpertSets:      m.ExpertSets,
		MeanReward:      m.MeanReward,
		MeanOHR:         m.MeanOHR,
		Predictors:      m.Predictors,
		ScalerMean:      m.ScalerMean,
		ScalerStd:       m.ScalerStd,
		PredictorInputs: m.PredictorInputs,
		FeatureWindow:   m.FeatureWindow,
	}
	switch obj := m.Objective.(type) {
	case OHRObjective:
		mj.Objective = "ohr"
	case BMRObjective:
		mj.Objective = "bmr"
	case CombinedObjective:
		mj.Objective = "combined"
		mj.CombinedK = obj.K
	default:
		return modelJSON{}, fmt.Errorf("core: objective %q is not serialisable", m.Objective.Name())
	}
	return mj, nil
}

// modelFromJSON validates a decoded modelJSON and rebuilds the Model. Shared
// by ReadModel and the checkpoint decoder. Every length the controller
// indexes by is checked here, so a decoded model cannot panic it later.
func modelFromJSON(mj modelJSON) (*Model, error) {
	if mj.Version != modelVersion {
		return nil, fmt.Errorf("core: model version %d, want %d", mj.Version, modelVersion)
	}
	if len(mj.Experts) == 0 || mj.Clusters == nil {
		return nil, fmt.Errorf("core: model missing experts or clustering")
	}
	if err := mj.FeatureCfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: model feature config: %w", err)
	}
	if err := checkShapes(mj); err != nil {
		return nil, err
	}
	var obj Objective
	switch mj.Objective {
	case "ohr":
		obj = OHRObjective{}
	case "bmr":
		obj = BMRObjective{}
	case "combined":
		obj = CombinedObjective{K: mj.CombinedK}
	default:
		return nil, fmt.Errorf("core: unknown objective %q", mj.Objective)
	}
	return &Model{
		Experts:         mj.Experts,
		FeatureCfg:      mj.FeatureCfg,
		Objective:       obj,
		Clusters:        mj.Clusters,
		ExpertSets:      mj.ExpertSets,
		MeanReward:      mj.MeanReward,
		MeanOHR:         mj.MeanOHR,
		Predictors:      mj.Predictors,
		ScalerMean:      mj.ScalerMean,
		ScalerStd:       mj.ScalerStd,
		PredictorInputs: mj.PredictorInputs,
		FeatureWindow:   mj.FeatureWindow,
	}, nil
}

// checkShapes checks the dimensions the controller relies on: the clustering
// over the base feature vector, per-cluster rows and the predictor matrix
// over the expert grid, and every predictor and the scaler over the
// PredictorInputs leading entries of the extended vector.
func checkShapes(mj modelJSON) error {
	k, nc := len(mj.Experts), mj.Clusters.K()
	dim := mj.FeatureCfg.VectorLen()
	if nc == 0 || len(mj.Clusters.Mean) != dim || len(mj.Clusters.Std) != dim {
		return fmt.Errorf("core: clustering has %d centroids over %d/%d moments, want ≥ 1 over %d",
			nc, len(mj.Clusters.Mean), len(mj.Clusters.Std), dim)
	}
	for c, cent := range mj.Clusters.Centroids {
		if len(cent) != dim {
			return fmt.Errorf("core: centroid %d has %d entries, want %d", c, len(cent), dim)
		}
	}
	if len(mj.ExpertSets) != nc || len(mj.MeanReward) != nc || len(mj.MeanOHR) != nc {
		return fmt.Errorf("core: per-cluster slices do not match %d clusters", nc)
	}
	for c, set := range mj.ExpertSets {
		if len(mj.MeanReward[c]) != k || len(mj.MeanOHR[c]) != k {
			return fmt.Errorf("core: cluster %d has %d mean rewards and %d mean OHRs, want %d",
				c, len(mj.MeanReward[c]), len(mj.MeanOHR[c]), k)
		}
		for _, ei := range set {
			if ei < 0 || ei >= k {
				return fmt.Errorf("core: cluster %d references expert %d of %d", c, ei, k)
			}
		}
	}
	in := mj.PredictorInputs
	if in < 0 || in > dim+mj.FeatureCfg.SizeBuckets {
		return fmt.Errorf("core: %d predictor inputs outside the %d-entry extended vector", in, dim+mj.FeatureCfg.SizeBuckets)
	}
	if len(mj.ScalerMean) != in || len(mj.ScalerStd) != in {
		return fmt.Errorf("core: scaler has %d/%d entries, want %d", len(mj.ScalerMean), len(mj.ScalerStd), in)
	}
	if len(mj.Predictors) != k {
		return fmt.Errorf("core: predictor matrix is %dx?, want %dx%d", len(mj.Predictors), k, k)
	}
	for i, row := range mj.Predictors {
		if len(row) != k {
			return fmt.Errorf("core: predictor row %d has %d entries, want %d", i, len(row), k)
		}
		for j, net := range row {
			if net != nil && (net.Inputs() != in || net.Outputs() != 2) {
				return fmt.Errorf("core: predictor (%d,%d) maps %d inputs to %d outputs, want %d to 2",
					i, j, net.Inputs(), net.Outputs(), in)
			}
		}
	}
	return nil
}

// WriteModel serialises a trained model: a persist frame (magic, format
// version, length, CRC32) wrapping the JSON payload. Torn or bit-flipped
// files fail ReadModel with a typed *persist.FormatError instead of decoding
// into a half-valid model.
func WriteModel(w io.Writer, m *Model) error {
	mj, err := modelToJSON(m)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(mj)
	if err != nil {
		return err
	}
	return persist.EncodeFrame(w, ModelMagic, ModelFormatVersion, payload)
}

// ReadModel restores a model written by WriteModel.
func ReadModel(r io.Reader) (*Model, error) {
	payload, err := persist.DecodeFrame(r, ModelMagic, ModelFormatVersion)
	if err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	var mj modelJSON
	if err := json.Unmarshal(payload, &mj); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	return modelFromJSON(mj)
}
