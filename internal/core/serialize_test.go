package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"darwin/internal/neural"
)

func TestModelRoundTrip(t *testing.T) {
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Experts) != len(m.Experts) {
		t.Fatalf("experts %d != %d", len(got.Experts), len(m.Experts))
	}
	if got.Objective.Name() != m.Objective.Name() {
		t.Fatalf("objective %q != %q", got.Objective.Name(), m.Objective.Name())
	}
	// Cluster assignment must be identical for every training point.
	for ri, rec := range ds.Records {
		if got.Clusters.Assign(rec.Features) != m.Clusters.Assign(rec.Features) {
			t.Fatalf("record %d assigned differently after round trip", ri)
		}
	}
	// Predictor outputs must be bit-identical.
	for i := range m.Predictors {
		for j := range m.Predictors[i] {
			if (m.Predictors[i][j] == nil) != (got.Predictors[i][j] == nil) {
				t.Fatalf("predictor (%d,%d) nil-ness changed", i, j)
			}
			if m.Predictors[i][j] == nil {
				continue
			}
			a, am, _ := m.PredictCond(i, j, ds.Records[0].Extended)
			b, bm, _ := got.PredictCond(i, j, ds.Records[0].Extended)
			if math.Abs(a-b) > 1e-12 || math.Abs(am-bm) > 1e-12 {
				t.Fatalf("predictor (%d,%d) output changed: %v/%v vs %v/%v", i, j, a, am, b, bm)
			}
		}
	}
	// Lookup must behave identically.
	c1, s1 := m.Lookup(ds.Records[0].Features)
	c2, s2 := got.Lookup(ds.Records[0].Features)
	if c1 != c2 || len(s1) != len(s2) {
		t.Fatalf("Lookup diverged: (%d,%v) vs (%d,%v)", c1, s1, c2, s2)
	}
}

// TestModelBytesPinned pins the bytes of a trained model file: clustering,
// expert sets, mean rewards, scaler and every predictor weight. Offline
// training is deterministic per seed, so any drift in it — a changed SGD step,
// a reordered sum — moves this digest. Recorded on amd64; architectures that
// may fuse multiply-adds round differently.
func TestModelBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64")
	}
	m, err := Train(testDataset(t), TrainConfig{NumClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	const want = "ba4211946ff4554db094ae39313b8ceb4968853c8cc5427c6e7dd289ce12a31b"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("model bytes moved: sha256 %s, want %s", got, want)
	}
}

func TestModelRoundTripCombinedObjective(t *testing.T) {
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 2, Seed: 1, Objective: CombinedObjective{K: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	co, ok := got.Objective.(CombinedObjective)
	if !ok || co.K != 1.5 {
		t.Fatalf("combined objective K lost: %+v", got.Objective)
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"version": 99}`,
		`{"version": 1}`, // missing experts/clusters
		`{"version": 1, "objective": "bogus", "experts": [{"Freq":1,"MaxSize":10}], "clusters": {"Centroids": [[0]], "Mean": [0], "Std": [1]}, "expert_sets": [[0]], "mean_reward": [[0]], "mean_ohr": [[0]], "predictors": [[null]]}`,
	}
	for i, in := range cases {
		if _, err := ReadModel(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage model accepted", i)
		}
	}
}

func TestReadModelRejectsOutOfRangeExpertSet(t *testing.T) {
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.ExpertSets[0] = []int{999}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModel(&buf); err == nil {
		t.Fatal("out-of-range expert index accepted")
	}
}

// TestDecodeRejectsMisshapenModel holds the decoder to every shape the
// controller indexes: each of these used to decode without error and then
// panic inside Controller.Play (a short mean or predictor row, a short
// scaler) or build a controller over a feature shape no extractor accepts.
func TestDecodeRejectsMisshapenModel(t *testing.T) {
	ds := testDataset(t)
	otherNet := func(in, out int) *neural.Net {
		n, err := neural.New(neural.Config{Inputs: in, Outputs: out, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cases := []struct {
		name  string
		frame bool // decode through DecodeCheckpointFrame instead of ReadModel
		bend  func(m *Model)
	}{
		{"short mean_ohr row", false, func(m *Model) { m.MeanOHR[1] = m.MeanOHR[1][:2] }},
		{"short mean_reward row", false, func(m *Model) { m.MeanReward[0] = m.MeanReward[0][:1] }},
		{"long mean_reward row", false, func(m *Model) { m.MeanReward[2] = append(m.MeanReward[2], 1) }},
		{"short predictors row", false, func(m *Model) { m.Predictors[4] = m.Predictors[4][:3] }},
		{"short scaler_std", false, func(m *Model) { m.ScalerStd = m.ScalerStd[:len(m.ScalerStd)-1] }},
		{"short scaler_mean", false, func(m *Model) { m.ScalerMean = m.ScalerMean[:3] }},
		{"net with too few inputs", false, func(m *Model) { m.Predictors[0][1] = otherNet(m.PredictorInputs-1, 2) }},
		{"net with three outputs", false, func(m *Model) { m.Predictors[1][0] = otherNet(m.PredictorInputs, 3) }},
		{"predictor inputs beyond the feature shape", false, func(m *Model) {
			n := m.FeatureCfg.VectorLen() + m.FeatureCfg.SizeBuckets + 1
			m.PredictorInputs = n
			m.ScalerMean, m.ScalerStd = make([]float64, n), make([]float64, n)
			for i := range m.Predictors {
				for j := range m.Predictors[i] {
					if m.Predictors[i][j] != nil {
						m.Predictors[i][j] = otherNet(n, 2)
					}
				}
			}
		}},
		{"invalid feature config", false, func(m *Model) { m.FeatureCfg.MinSize = 0 }},
		{"short cluster centroid", false, func(m *Model) { m.Clusters.Centroids[0] = m.Clusters.Centroids[0][:4] }},
		{"short cluster std", false, func(m *Model) { m.Clusters.Std = m.Clusters.Std[:4] }},
		{"checkpoint: short mean_ohr row", true, func(m *Model) { m.MeanOHR[0] = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Train(ds, TrainConfig{NumClusters: 3, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			tc.bend(m)
			if tc.frame {
				frame, err := EncodeCheckpointFrame(&Checkpoint{Model: m})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := DecodeCheckpointFrame(frame); err == nil {
					t.Fatal("checkpoint with a misshapen model decoded")
				}
				return
			}
			var buf bytes.Buffer
			if err := WriteModel(&buf, m); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadModel(&buf); err == nil {
				t.Fatal("misshapen model decoded")
			}
		})
	}
}

func TestSerializedControllerWorks(t *testing.T) {
	// A model restored from disk must drive the online controller.
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := newHier(t)
	ctrl, err := NewController(restored, h, onlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraces(t)[0]
	ctrl.Play(tr)
	if ctrl.Metrics().Requests != int64(tr.Len()) {
		t.Fatal("restored model controller did not serve")
	}
}

func TestNoSizeDistributionAblation(t *testing.T) {
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 2, Seed: 1, NoSizeDistribution: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.PredictorInputs != ds.FeatureCfg.VectorLen() {
		t.Fatalf("PredictorInputs = %d, want %d", m.PredictorInputs, ds.FeatureCfg.VectorLen())
	}
	// Predictions must still work on full extended vectors (truncated
	// internally) and survive a serialisation round trip.
	found := false
	for _, set := range m.ExpertSets {
		if len(set) >= 2 {
			ch, cm, ok := m.PredictCond(set[0], set[1], ds.Records[0].Extended)
			if !ok || ch < 0 || ch > 1 || cm < 0 || cm > 1 {
				t.Fatalf("truncated predictor misbehaved: %v %v %v", ch, cm, ok)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no multi-expert set")
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PredictorInputs != m.PredictorInputs {
		t.Fatalf("PredictorInputs lost in round trip: %d", got.PredictorInputs)
	}
}
