package exp

import (
	"fmt"
	"math"
	"sort"

	"darwin/internal/core"
	"darwin/internal/features"
	"darwin/internal/stats"
	"darwin/internal/trace"
)

// Fig5aFeatureConvergence reproduces Figure 5a (and Figure 8): the relative
// error of feature vectors computed over trace prefixes against the
// full-trace values, averaged over the given traces.
func Fig5aFeatureConvergence(traces []*trace.Trace, fcfg features.Config, fracs []float64) (*Report, error) {
	rep := &Report{
		Title:  "Figure 5a/8: feature convergence vs prefix length",
		Header: []string{"prefix", "mean rel. error %"},
	}
	errsAt := make([]float64, len(fracs))
	for _, tr := range traces {
		full, err := features.FromTrace(tr, fcfg)
		if err != nil {
			return nil, err
		}
		for i, f := range fracs {
			prefix, err := features.FromTrace(tr.Window(0, int(float64(tr.Len())*f)), fcfg)
			if err != nil {
				return nil, err
			}
			errsAt[i] += features.RelativeError(prefix, full)
		}
	}
	for i, f := range fracs {
		rep.AddRow(fmt.Sprintf("%.0f%%", f*100), f2(errsAt[i]/float64(len(traces))*100))
	}
	rep.AddNote("paper: features converge to within 10%% using the first 3%% of requests")
	return rep, nil
}

// Fig5bClusterReduction reproduces Figures 5b and 9: for each θ, the
// distribution of per-cluster expert-set sizes and the average reduction
// relative to the full grid.
func Fig5bClusterReduction(ds *core.Dataset, numClusters int, thetas []float64, seed int64) (*Report, error) {
	rep := &Report{
		Title:  "Figure 5b/9: expert reduction after clustering",
		Header: []string{"theta%", "avg set size", "median", "p90", "avg reduction %"},
	}
	k := float64(len(ds.Experts))
	for _, theta := range thetas {
		m, err := core.Train(ds, core.TrainConfig{
			NumClusters:    numClusters,
			ThetaPct:       theta,
			Seed:           seed,
			SkipPredictors: true,
		})
		if err != nil {
			return nil, err
		}
		var sizes []float64
		for _, set := range m.ExpertSets {
			if len(set) > 0 {
				sizes = append(sizes, float64(len(set)))
			}
		}
		if len(sizes) == 0 {
			continue
		}
		avg := stats.Mean(sizes)
		rep.AddRow(
			fmt.Sprintf("%.0f", theta),
			f2(avg),
			f2(stats.Percentile(sizes, 50)),
			f2(stats.Percentile(sizes, 90)),
			f2((1-avg/k)*100),
		)
	}
	rep.AddNote("grid size %d experts; paper reports 82%% reduction at theta=1, 35%% at theta=5", len(ds.Experts))
	return rep, nil
}

// Fig5cPredictorAccuracy reproduces Figure 5c (and the out-of-distribution
// variant of Figure 10): the CDF of order-prediction accuracy over all
// trained predictor pairs at several proximity levels, computed on held-out
// records.
func Fig5cPredictorAccuracy(m *core.Model, test []*core.TraceRecord, proximities []float64) (*Report, error) {
	if len(test) == 0 {
		return nil, fmt.Errorf("exp: no test records")
	}
	rep := &Report{
		Title:  "Figure 5c/10: cross-expert order prediction accuracy",
		Header: []string{"proximity%", "mean acc", "p10 acc", "median acc", ">=80% acc pairs"},
	}
	k := len(m.Experts)
	for _, prox := range proximities {
		var accs []float64
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i == j || m.Predictors[i][j] == nil {
					continue
				}
				correct, total := 0, 0
				for _, rec := range test {
					ohrI := rec.Metrics[i].OHR()
					ohrJ := rec.Metrics[j].OHR()
					est, ok := m.EstimateReward(i, j, ohrI, rec.Extended, rec.Profile)
					if !ok {
						continue
					}
					total++
					// Proximal pairs count as correct (paper's definition).
					if math.Abs(ohrI-ohrJ) <= prox/100 {
						correct++
						continue
					}
					if (est > ohrI) == (ohrJ > ohrI) {
						correct++
					}
				}
				if total > 0 {
					accs = append(accs, float64(correct)/float64(total))
				}
			}
		}
		if len(accs) == 0 {
			continue
		}
		sort.Float64s(accs)
		ge80 := 0
		for _, a := range accs {
			if a >= 0.8 {
				ge80++
			}
		}
		rep.AddRow(
			fmt.Sprintf("%.0f", prox),
			f4(stats.Mean(accs)),
			f4(stats.PercentileSorted(accs, 10)),
			f4(stats.PercentileSorted(accs, 50)),
			fmt.Sprintf("%d/%d", ge80, len(accs)),
		)
	}
	rep.AddNote("paper: with 1%% proximity, >90%% of the 1260 predictors reach >80%% accuracy")
	return rep, nil
}

// heldOutRecords evaluates the corpus's expert grid on its held-out test
// traces: records drawn from a different distribution than the training set
// the model was fitted on.
func heldOutRecords(c *Corpus) ([]*core.TraceRecord, error) {
	ds, err := core.BuildDataset(c.Test, core.DatasetConfig{
		Experts:       c.Scale.Experts,
		Eval:          c.Scale.Eval,
		FeatureWindow: c.Scale.Online.Warmup,
	})
	if err != nil {
		return nil, err
	}
	return ds.Records, nil
}

// Fig10OutOfDistribution reproduces Figure 10: Figure 5c's accuracy CDF with
// the predictors scored on the held-out test traces instead of the records
// they were trained on.
func Fig10OutOfDistribution(c *Corpus, proximities []float64) (*Report, error) {
	test, err := heldOutRecords(c)
	if err != nil {
		return nil, err
	}
	rep, err := Fig5cPredictorAccuracy(c.Model, test, proximities)
	if err != nil {
		return nil, err
	}
	rep.Title = "Figure 10: out-of-distribution " + rep.Title
	return rep, nil
}

// Fig5dBanditRounds reproduces Figure 5d: the CDF of bandit rounds needed
// before the best expert is identified, from Darwin's epoch diagnostics.
func Fig5dBanditRounds(diags []core.EpochDiag) *Report {
	rep := &Report{
		Title:  "Figure 5d: rounds for best-expert identification",
		Header: []string{"rounds", "CDF"},
	}
	var rounds []float64
	byReason := map[string]int{}
	for _, d := range diags {
		byReason[d.StopReason]++
		if d.SetSize >= 2 {
			rounds = append(rounds, float64(d.Rounds))
		}
	}
	if len(rounds) == 0 {
		rep.AddNote("all epochs had singleton expert sets; no bandit rounds")
		return rep
	}
	for _, p := range stats.CDF(rounds) {
		rep.AddRow(fmt.Sprintf("%.0f", p.Value), f2(p.Fraction))
	}
	reasons := make([]string, 0, len(byReason))
	for reason := range byReason {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		rep.AddNote("stop reason %q: %d epochs", reason, byReason[reason])
	}
	rep.AddNote("paper: >=80%% of traces stabilise by round 12; worst case 21 rounds")
	return rep
}
