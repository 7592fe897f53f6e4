package core

import (
	"math"
	"sync"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// Small-scale shared fixtures: building a dataset evaluates every expert on
// every trace, so the corpus is kept deliberately tiny and cached.
var (
	fixtureOnce sync.Once
	fixtureDS   *Dataset
	fixtureErr  error
)

func testEval() cache.EvalConfig {
	return cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20, WarmupFrac: 0.1}
}

func testExperts() []cache.Expert {
	return cache.Grid([]int{1, 3, 5}, []int64{2 << 10, 20 << 10, 200 << 10})
}

func testTraces(t testing.TB) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, pct := range []int{0, 25, 50, 75, 100} {
		for seed := int64(0); seed < 2; seed++ {
			tr, err := tracegen.ImageDownloadMix(pct, 12000, 100+seed+int64(pct))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tr)
		}
	}
	return out
}

func testDataset(t testing.TB) *Dataset {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureDS, fixtureErr = BuildDataset(testTraces(t), DatasetConfig{
			Experts: testExperts(),
			Eval:    testEval(),
		})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureDS
}

func TestBuildDatasetValidation(t *testing.T) {
	if _, err := BuildDataset(nil, DatasetConfig{}); err == nil {
		t.Fatal("empty trace set accepted")
	}
	tr, _ := tracegen.ImageDownloadMix(50, 1000, 1)
	if _, err := BuildDataset([]*trace.Trace{tr}, DatasetConfig{Experts: []cache.Expert{}, Eval: testEval()}); err == nil {
		t.Fatal("empty expert grid accepted")
	}
}

func TestDatasetShape(t *testing.T) {
	ds := testDataset(t)
	if len(ds.Records) != 10 {
		t.Fatalf("records = %d", len(ds.Records))
	}
	k := len(ds.Experts)
	for _, rec := range ds.Records {
		if len(rec.Metrics) != k || len(rec.CondHit) != k || len(rec.CondMiss) != k {
			t.Fatalf("record %s has wrong shapes", rec.Name)
		}
		if len(rec.Features) != ds.FeatureCfg.VectorLen() {
			t.Fatalf("feature len = %d", len(rec.Features))
		}
		if len(rec.Extended) != ds.FeatureCfg.VectorLen()+ds.FeatureCfg.SizeBuckets {
			t.Fatalf("extended len = %d", len(rec.Extended))
		}
	}
}

func TestDatasetConditionalConsistency(t *testing.T) {
	ds := testDataset(t)
	for _, rec := range ds.Records {
		for i := range ds.Experts {
			ohrI := rec.Metrics[i].OHR()
			// Diagonal: P(i hit | i hit) = 1 when i ever hits, P(i hit | i miss) = 0.
			if ohrI > 0 && math.Abs(rec.CondHit[i][i]-1) > 1e-9 {
				t.Fatalf("%s: CondHit[%d][%d] = %v, want 1", rec.Name, i, i, rec.CondHit[i][i])
			}
			if rec.CondMiss[i][i] != 0 {
				t.Fatalf("%s: CondMiss[%d][%d] = %v, want 0", rec.Name, i, i, rec.CondMiss[i][i])
			}
			for j := range ds.Experts {
				// Law of total probability reconstructs j's marginal.
				got := ohrI*rec.CondHit[i][j] + (1-ohrI)*rec.CondMiss[i][j]
				want := rec.Metrics[j].OHR()
				if math.Abs(got-want) > 1e-6 {
					t.Fatalf("%s: pair (%d,%d): reconstructed %v, want %v", rec.Name, i, j, got, want)
				}
			}
		}
	}
}

func TestDatasetRewardsAndBest(t *testing.T) {
	ds := testDataset(t)
	rec := ds.Records[0]
	rw := ds.Rewards(rec, OHRObjective{})
	best := ds.BestExpert(rec, OHRObjective{})
	for i, v := range rw {
		if v > rw[best] {
			t.Fatalf("BestExpert missed %d", i)
		}
		if math.Abs(v-rec.Metrics[i].OHR()) > 1e-12 {
			t.Fatalf("reward %d != OHR", i)
		}
	}
}

func TestTrainModelShape(t *testing.T) {
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Clusters.K() != 3 {
		t.Fatalf("clusters = %d", m.Clusters.K())
	}
	if len(m.ExpertSets) != 3 || len(m.MeanReward) != 3 || len(m.MeanOHR) != 3 {
		t.Fatal("per-cluster slices wrong length")
	}
	k := len(ds.Experts)
	for c, set := range m.ExpertSets {
		for _, ei := range set {
			if ei < 0 || ei >= k {
				t.Fatalf("cluster %d has invalid expert index %d", c, ei)
			}
		}
	}
}

func TestTrainExpertSetsCoverBest(t *testing.T) {
	// §6.2: "at least one of the trace's best experts is always included in
	// its corresponding expert set".
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for ri, rec := range ds.Records {
		c := m.Clusters.Assignments[ri]
		best := ds.BestExpert(rec, OHRObjective{})
		found := false
		for _, ei := range m.ExpertSets[c] {
			if ei == best {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trace %s: best expert %d missing from cluster %d set %v",
				rec.Name, best, c, m.ExpertSets[c])
		}
	}
}

func TestTrainThetaGrowsSets(t *testing.T) {
	ds := testDataset(t)
	m1, err := Train(ds, TrainConfig{NumClusters: 3, ThetaPct: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m5, err := Train(ds, TrainConfig{NumClusters: 3, ThetaPct: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := func(m *Model) int {
		n := 0
		for _, s := range m.ExpertSets {
			n += len(s)
		}
		return n
	}
	if total(m5) < total(m1) {
		t.Fatalf("θ=5%% sets (%d) smaller than θ=1%% (%d)", total(m5), total(m1))
	}
}

func TestTrainClusteringReducesExperts(t *testing.T) {
	// Fig 5b behaviour: the per-cluster sets should be much smaller than the
	// full grid at θ=1%.
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 4, ThetaPct: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := len(ds.Experts)
	var totalFrac float64
	n := 0
	for _, set := range m.ExpertSets {
		if len(set) == 0 {
			continue
		}
		totalFrac += float64(len(set)) / float64(k)
		n++
	}
	if n == 0 {
		t.Fatal("no non-empty expert sets")
	}
	if avg := totalFrac / float64(n); avg > 0.8 {
		t.Fatalf("average set fraction %.2f — clustering reduced nothing", avg)
	}
}

func TestPredictorsExistForSetPairs(t *testing.T) {
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for c, set := range m.ExpertSets {
		for _, i := range set {
			for _, j := range set {
				if i == j {
					continue
				}
				ch, cm, ok := m.PredictCond(i, j, ds.Records[0].Extended)
				if !ok {
					t.Fatalf("cluster %d pair (%d,%d) has no predictor", c, i, j)
				}
				if ch < 0 || ch > 1 || cm < 0 || cm > 1 {
					t.Fatalf("conditional probabilities out of range: %v %v", ch, cm)
				}
			}
		}
	}
}

func TestPredictCondBounds(t *testing.T) {
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := m.PredictCond(-1, 0, ds.Records[0].Extended); ok {
		t.Fatal("negative index accepted")
	}
	if _, _, ok := m.PredictCond(0, 0, ds.Records[0].Extended); ok {
		t.Fatal("diagonal should have no predictor")
	}
}

func TestPredictorOrderAccuracy(t *testing.T) {
	// Fig 5c behaviour: for most trained pairs, the predictors order expert
	// hit rates correctly (or the pair is proximal).
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const proximal = 0.01
	correct, total := 0, 0
	for _, rec := range ds.Records {
		for i := range ds.Experts {
			for j := range ds.Experts {
				if i == j {
					continue
				}
				ohrI := rec.Metrics[i].OHR()
				ohrJ := rec.Metrics[j].OHR()
				est, ok := m.EstimateReward(i, j, ohrI, rec.Extended, rec.Profile)
				if !ok {
					continue // the pair shares no cluster's expert set
				}
				total++
				if math.Abs(ohrI-ohrJ) < proximal {
					correct++ // proximal pairs count as correct (paper's rule)
					continue
				}
				if (est > ohrI) == (ohrJ > ohrI) {
					correct++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no trained predictor pairs")
	}
	acc := float64(correct) / float64(total)
	t.Logf("in-sample order accuracy %.2f over %d trained-pair evaluations", acc, total)
	if acc < 0.7 {
		t.Fatalf("in-sample order accuracy %.2f too low", acc)
	}
}

func TestSideVariance(t *testing.T) {
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal: p(1-p).
	v, ok := m.SideVariance(0, 0, 0.3, ds.Records[0].Extended)
	if !ok || math.Abs(v-0.21) > 1e-12 {
		t.Fatalf("own variance = %v, %v", v, ok)
	}
	// Off-diagonal with a trained pair must lie in [0, 0.25].
	var found bool
	for _, set := range m.ExpertSets {
		if len(set) >= 2 {
			v, ok := m.SideVariance(set[0], set[1], 0.3, ds.Records[0].Extended)
			if !ok {
				t.Fatal("trained pair has no variance")
			}
			if v < 0 || v > 0.25 {
				t.Fatalf("sigma^2 = %v", v)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no multi-expert sets in this fixture")
	}
}

func TestLookupFallback(t *testing.T) {
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Force an empty set for one cluster and check the fallback.
	m.ExpertSets[0] = nil
	m.ExpertSets[1] = nil
	_, set := m.Lookup(ds.Records[0].Features)
	if len(set) != 1 {
		t.Fatalf("fallback set = %v", set)
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	if _, err := Train(&Dataset{}, TrainConfig{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}
