package exp

import (
	"fmt"
	"strconv"

	"darwin/internal/bandit"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/stats"
	"darwin/internal/tracegen"
)

// Fig6Objective reproduces Figures 6a and 6b: Darwin retrained for a
// different objective ("bmr" or "combined") against the static expert grid
// on the ensemble set. The model is retrained from the corpus's dataset,
// which does not depend on the objective. The report shows the objective
// value per scheme and Darwin's improvement range.
func Fig6Objective(c *Corpus, objective string, title string) (*Report, error) {
	obj, err := core.ObjectiveByName(objective)
	if err != nil {
		return nil, err
	}
	model, err := c.Scale.train(c.Dataset, obj)
	if err != nil {
		return nil, err
	}
	ensemble, runs, err := c.runEnsemble(model, c.Scale.Online)
	if err != nil {
		return nil, err
	}
	darwinVals := make([]float64, len(runs))
	for i, r := range runs {
		darwinVals[i] = obj.Reward(r.m)
	}

	rep := &Report{
		Title:  title,
		Header: []string{"scheme", "mean objective", "min impr%", "median impr%", "max impr%"},
	}
	for ei, e := range c.Scale.Experts {
		vals := make([]float64, len(ensemble))
		for i, m := range ensemble {
			vals[i] = obj.Reward(m.grid[ei])
		}
		imps := objImprovements(darwinVals, vals)
		rep.AddRow(e.String(), f4(stats.Mean(vals)),
			f2(minOf(imps)), f2(stats.Percentile(imps, 50)), f2(maxOf(imps)))
	}
	rep.AddNote("darwin mean objective %.4f (%s) over %d traces",
		stats.Mean(darwinVals), obj.Name(), len(ensemble))
	return rep, nil
}

// objImprovements computes percentage improvements for objectives that may
// be negative (e.g. −BMR): improvement is measured on the magnitude of the
// baseline value.
func objImprovements(darwin, baseline []float64) []float64 {
	out := make([]float64, len(darwin))
	for i := range darwin {
		den := baseline[i]
		if den < 0 {
			den = -den
		}
		if den == 0 {
			out[i] = 0
			continue
		}
		out[i] = (darwin[i] - baseline[i]) / den * 100
	}
	return out
}

// ablate runs Darwin over the ensemble with online configuration oc and
// returns its mean OHR and the mean bandit rounds of every multi-expert epoch
// (0 if there were none).
func (c *Corpus) ablate(oc core.OnlineConfig) (ohr, rounds float64, err error) {
	_, runs, err := c.runEnsemble(c.Model, oc)
	if err != nil {
		return 0, 0, err
	}
	var ohrs, rs []float64
	for _, r := range runs {
		ohrs = append(ohrs, r.m.OHR())
		for _, d := range r.diags {
			if d.SetSize >= 2 {
				rs = append(rs, float64(d.Rounds))
			}
		}
	}
	if len(rs) > 0 {
		rounds = stats.Mean(rs)
	}
	return stats.Mean(ohrs), rounds, nil
}

// AblationSideInfo compares Darwin's identification speed and quality with
// side information enabled vs. classical bandit feedback (DESIGN.md §4.1):
// the ablation the theory (Theorem 2) predicts.
func AblationSideInfo(c *Corpus) (*Report, error) {
	rep := &Report{
		Title:  "Ablation: side information vs standard bandit feedback",
		Header: []string{"variant", "mean OHR", "mean rounds"},
	}
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"with side info", false}, {"standard feedback", true}} {
		oc := c.Scale.Online
		oc.DisableSideInfo = variant.disable
		ohr, rounds, err := c.ablate(oc)
		if err != nil {
			return nil, err
		}
		rep.AddRow(variant.name, f4(ohr), f2(rounds))
	}
	rep.AddNote("Theorem 2: side-information rounds do not scale with K; standard feedback scales linearly")
	return rep, nil
}

// AblationRoundsVsK demonstrates the Theorem-2 scaling claim on synthetic
// Gaussian environments: mean rounds to identify the best of K arms, and how
// often the identified arm is the true best, with side information vs
// standard feedback. Arm means step down by 0.04 from 0.5; every variance is
// 0.02; each cell averages 20 seeded trials.
func AblationRoundsVsK(ks []int) (*Report, error) {
	rep := &Report{
		Title:  "Ablation: rounds to identify vs number of experts K (synthetic)",
		Header: []string{"K", "side-info rounds", "side-info acc", "standard rounds", "standard acc"},
	}
	const trials = 20
	for _, k := range ks {
		mu := make([]float64, k)
		own := make([]float64, k)
		side := make([][]float64, k)
		for i := range side {
			mu[i] = 0.5 - 0.04*float64(i)
			own[i] = 0.02
			side[i] = make([]float64, k)
			for j := range side[i] {
				side[i][j] = 0.02
			}
		}
		row := []string{strconv.Itoa(k)}
		for _, sigma2 := range [][][]float64{side, bandit.StandardSigma2(own)} {
			total, correct := 0, 0
			for t := 0; t < trials; t++ {
				env, err := bandit.NewEnv(mu, sigma2, int64(100*k+t))
				if err != nil {
					return nil, err
				}
				st, err := bandit.Run(bandit.DefaultConfig(sigma2), env, 5000)
				if err != nil {
					return nil, err
				}
				total += st.T
				if st.Recommendation() == 0 {
					correct++
				}
			}
			row = append(row,
				fmt.Sprintf("%.1f", float64(total)/trials),
				fmt.Sprintf("%.2f", float64(correct)/trials))
		}
		rep.AddRow(row...)
	}
	return rep, nil
}

// AblationEviction is the DESIGN.md design-choice ablation: the paper
// evaluates with LRU at both levels; how much does the HOC eviction policy
// matter under the best static expert on a 50:50 mix?
func AblationEviction(sc Scale) (*Report, error) {
	tr, err := tracegen.ImageDownloadMix(50, sc.OnlineTraceLen, sc.Seed+77)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation: HOC eviction policy under the best static expert",
		Header: []string{"eviction", "OHR", "BMR"},
	}
	e := cache.Expert{Freq: 2, MaxSize: 50 << 10}
	rp := cache.NewReplay(tr)
	for _, name := range []string{"lru", "s4lru", "lfu", "fifo"} {
		cfg := sc.Eval
		cfg.HOCEviction = name
		m, _, err := rp.Hits(e, cfg)
		if err != nil {
			return nil, err
		}
		rep.AddRow(name, f4(m.OHR()), f4(m.BMR()))
	}
	return rep, nil
}

// AblationStopping compares the practical stability stop against the
// Theorem-1 threshold-only stop.
func AblationStopping(c *Corpus) (*Report, error) {
	rep := &Report{
		Title:  "Ablation: stability stop vs threshold-only stop",
		Header: []string{"variant", "mean OHR", "mean rounds"},
	}
	for _, variant := range []struct {
		name      string
		stability int
	}{{"stability-5", 5}, {"threshold-only", 0}} {
		oc := c.Scale.Online
		oc.StabilityRounds = variant.stability
		ohr, rounds, err := c.ablate(oc)
		if err != nil {
			return nil, err
		}
		rep.AddRow(variant.name, f4(ohr), f2(rounds))
	}
	return rep, nil
}

// AblationRoundLength sweeps N_round, the de-correlation knob of §4.2.
func AblationRoundLength(c *Corpus, lengths []int) (*Report, error) {
	rep := &Report{
		Title:  "Ablation: bandit round length N_round",
		Header: []string{"N_round", "mean OHR"},
	}
	for _, n := range lengths {
		oc := c.Scale.Online
		oc.Round = n
		if oc.Warmup+2*n > oc.Epoch {
			continue
		}
		ohr, _, err := c.ablate(oc)
		if err != nil {
			return nil, err
		}
		rep.AddRow(intStr(n), f4(ohr))
	}
	return rep, nil
}

func intStr(n int) string { return strconv.Itoa(n) }

// AblationPredictorFeatures reproduces the §4.1 feature claim: cross-expert
// predictors trained with the bucketised size distribution appended to the
// base features vs. base features only, compared by mean order-prediction
// accuracy (1% proximity) on the held-out test traces.
func AblationPredictorFeatures(c *Corpus) (*Report, error) {
	test, err := c.heldOutDataset()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation: predictor features with vs without size distribution",
		Header: []string{"features", "mean order acc (1% prox)"},
	}
	for _, variant := range []struct {
		name string
		noSD bool
	}{{"base + size distribution", false}, {"base only", true}} {
		m, err := core.Train(c.Dataset, core.TrainConfig{
			NumClusters:        c.Scale.NumClusters,
			ThetaPct:           c.Scale.ThetaPct,
			Seed:               c.Scale.Seed,
			NoSizeDistribution: variant.noSD,
		})
		if err != nil {
			return nil, err
		}
		acc, err := meanOrderAccuracy(m, test.Records, 1)
		if err != nil {
			return nil, err
		}
		rep.AddRow(variant.name, f4(acc))
	}
	rep.AddNote("paper (§4.1) claims the size distribution sharpens estimates; with few training traces the extra inputs can overfit instead")
	return rep, nil
}

// meanOrderAccuracy averages order-prediction accuracy over all trained
// pairs at the given proximity (percent).
func meanOrderAccuracy(m *core.Model, test []*core.TraceRecord, proximity float64) (float64, error) {
	rep, err := Fig5cPredictorAccuracy(m, test, []float64{proximity})
	if err != nil {
		return 0, err
	}
	if len(rep.Rows) == 0 {
		return 0, nil
	}
	return parseFloat(rep.Rows[0][1]), nil
}

func parseFloat(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}
