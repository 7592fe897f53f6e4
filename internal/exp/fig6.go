package exp

import (
	"fmt"
	"strconv"

	"darwin/internal/bandit"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/par"
	"darwin/internal/stats"
	"darwin/internal/trace"
)

// Fig6Objective reproduces Figures 6a and 6b: Darwin retrained for a
// different objective ("bmr" or "combined") against the static expert grid
// on the ensemble set. The report shows the objective value per scheme and
// Darwin's improvement range.
func Fig6Objective(sc Scale, objective string, title string) (*Report, error) {
	c, err := CachedCorpus(sc, objective)
	if err != nil {
		return nil, err
	}
	obj := c.Model.Objective
	ensemble, err := EnsembleSet(c)
	if err != nil {
		return nil, err
	}

	// Darwin under the retrained objective: one run per ensemble trace,
	// fanned out over the engine in trace order.
	darwinVals, err := par.Map(ensemble, func(i int, tr *trace.Trace) (float64, error) {
		m, _, err := RunDarwin(c, tr)
		if err != nil {
			return 0, fmt.Errorf("darwin on %s: %w", tr.Name, err)
		}
		return obj.Reward(m), nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Title:  title,
		Header: []string{"scheme", "mean objective", "min impr%", "median impr%", "max impr%"},
	}
	for ei, e := range sc.Experts {
		var vals []float64
		for _, tr := range ensemble {
			ms, err := Hindsight(c, tr)
			if err != nil {
				return nil, err
			}
			vals = append(vals, obj.Reward(ms[ei]))
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

// runDarwinEnsemble runs Darwin over every ensemble trace (fanned out over
// the engine, results in trace order) and returns the per-trace OHRs plus the
// bandit round counts of every multi-expert epoch.
func runDarwinEnsemble(c *Corpus, ensemble []*trace.Trace) (ohrs, rounds []float64, err error) {
	type runOut struct {
		ohr    float64
		rounds []float64
	}
	outs, err := par.Map(ensemble, func(i int, tr *trace.Trace) (runOut, error) {
		m, diags, err := RunDarwin(c, tr)
		if err != nil {
			return runOut{}, fmt.Errorf("darwin on %s: %w", tr.Name, err)
		}
		o := runOut{ohr: m.OHR()}
		for _, d := range diags {
			if d.SetSize >= 2 {
				o.rounds = append(o.rounds, float64(d.Rounds))
			}
		}
		return o, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, o := range outs {
		ohrs = append(ohrs, o.ohr)
		rounds = append(rounds, o.rounds...)
	}
	return ohrs, rounds, nil
}

// AblationSideInfo compares Darwin's identification speed and quality with
// side information enabled vs. classical bandit feedback (DESIGN.md §4.1):
// the ablation the theory (Theorem 2) predicts.
func AblationSideInfo(sc Scale) (*Report, error) {
	c, err := CachedCorpus(sc, "ohr")
	if err != nil {
		return nil, err
	}
	ensemble, err := EnsembleSet(c)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation: side information vs standard bandit feedback",
		Header: []string{"variant", "mean OHR", "mean rounds"},
	}
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"with side info", false}, {"standard feedback", true}} {
		scv := sc
		scv.Online.DisableSideInfo = variant.disable
		cv := &Corpus{Scale: scv, Train: c.Train, Test: c.Test, Dataset: c.Dataset, Model: c.Model}
		ohrs, rounds, err := runDarwinEnsemble(cv, ensemble)
		if err != nil {
			return nil, err
		}
		mr := 0.0
		if len(rounds) > 0 {
			mr = stats.Mean(rounds)
		}
		rep.AddRow(variant.name, f4(stats.Mean(ohrs)), f2(mr))
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
				alg, err := bandit.New(bandit.DefaultConfig(sigma2))
				if err != nil {
					return nil, err
				}
				best, rounds, err := bandit.Run(alg, env, 5000)
				if err != nil {
					return nil, err
				}
				total += rounds
				if best == 0 {
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
	tr, err := SyntheticMix(50, sc.OnlineTraceLen, sc.Seed+77)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation: HOC eviction policy under the best static expert",
		Header: []string{"eviction", "OHR", "BMR"},
	}
	e := cache.Expert{Freq: 2, MaxSize: 50 << 10}
	for _, name := range []string{"lru", "s4lru", "lfu", "fifo"} {
		cfg := sc.Eval
		cfg.HOCEviction = name
		m, err := cache.Evaluate(tr, e, cfg)
		if err != nil {
			return nil, err
		}
		rep.AddRow(name, f4(m.OHR()), f4(m.BMR()))
	}
	return rep, nil
}

// AblationStopping compares the practical stability stop against the
// Theorem-1 threshold-only stop.
func AblationStopping(sc Scale) (*Report, error) {
	c, err := CachedCorpus(sc, "ohr")
	if err != nil {
		return nil, err
	}
	ensemble, err := EnsembleSet(c)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation: stability stop vs threshold-only stop",
		Header: []string{"variant", "mean OHR", "mean rounds"},
	}
	for _, variant := range []struct {
		name      string
		stability int
	}{{"stability-5", 5}, {"threshold-only", 0}} {
		scv := sc
		scv.Online.StabilityRounds = variant.stability
		cv := &Corpus{Scale: scv, Train: c.Train, Test: c.Test, Dataset: c.Dataset, Model: c.Model}
		ohrs, rounds, err := runDarwinEnsemble(cv, ensemble)
		if err != nil {
			return nil, err
		}
		mr := 0.0
		if len(rounds) > 0 {
			mr = stats.Mean(rounds)
		}
		rep.AddRow(variant.name, f4(stats.Mean(ohrs)), f2(mr))
	}
	return rep, nil
}

// AblationRoundLength sweeps N_round, the de-correlation knob of §4.2.
func AblationRoundLength(sc Scale, lengths []int) (*Report, error) {
	c, err := CachedCorpus(sc, "ohr")
	if err != nil {
		return nil, err
	}
	ensemble, err := EnsembleSet(c)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title:  "Ablation: bandit round length N_round",
		Header: []string{"N_round", "mean OHR"},
	}
	for _, n := range lengths {
		scv := sc
		scv.Online.Round = n
		if scv.Online.Warmup+2*n > scv.Online.Epoch {
			continue
		}
		cv := &Corpus{Scale: scv, Train: c.Train, Test: c.Test, Dataset: c.Dataset, Model: c.Model}
		ohrs, _, err := runDarwinEnsemble(cv, ensemble)
		if err != nil {
			return nil, err
		}
		rep.AddRow(intStr(n), f4(stats.Mean(ohrs)))
	}
	return rep, nil
}

func intStr(n int) string { return strconv.Itoa(n) }

// AblationPredictorFeatures reproduces the §4.1 feature claim: cross-expert
// predictors trained with the bucketised size distribution appended to the
// base features vs. base features only, compared by mean order-prediction
// accuracy (1% proximity) on the held-out test traces.
func AblationPredictorFeatures(sc Scale) (*Report, error) {
	c, err := CachedCorpus(sc, "ohr")
	if err != nil {
		return nil, err
	}
	test, err := heldOutRecords(c)
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
			NumClusters:        sc.NumClusters,
			ThetaPct:           sc.ThetaPct,
			Seed:               sc.Seed,
			NoSizeDistribution: variant.noSD,
		})
		if err != nil {
			return nil, err
		}
		acc, err := meanOrderAccuracy(m, test, 1)
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
