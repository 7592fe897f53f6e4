package core_test

import (
	"reflect"
	"slices"
	"testing"

	"darwin/internal/bandit"
	"darwin/internal/baselines"
	"darwin/internal/cache"
	"darwin/internal/cluster"
	"darwin/internal/core"
	"darwin/internal/faults"
	"darwin/internal/neural"
)

// learnerSurface is every exported field of the config structs behind
// offline training, the online controller and the simulator. A field here is
// a knob that a flag sets, or that some caller other than a test sets to more
// than one value; everything else is a constant in the package that reads
// it. A struct-typed field is one value (EvalConfig, Expert), as the census
// in DESIGN.md §4 item 16 counts it.
var learnerSurface = []string{
	"core.OnlineConfig.Epoch",
	"core.OnlineConfig.Warmup",
	"core.OnlineConfig.Round",
	"core.OnlineConfig.StabilityRounds",
	"core.OnlineConfig.DisableSideInfo",

	"core.TrainConfig.Objective",
	"core.TrainConfig.NumClusters",
	"core.TrainConfig.ThetaPct",
	"core.TrainConfig.SkipPredictors",
	"core.TrainConfig.NoSizeDistribution",
	"core.TrainConfig.Seed",

	"core.DatasetConfig.Experts",
	"core.DatasetConfig.Eval",
	"core.DatasetConfig.FeatureWindow",

	"core.EvictionSelectorConfig.Epoch",
	"core.EvictionSelectorConfig.Round",

	"bandit.Config.Sigma2",
	"bandit.Config.Delta",
	"bandit.Config.StabilityRounds",
	"bandit.Config.MaxRounds",

	"cluster.Config.K",
	"cluster.Config.Seed",

	"neural.Trainer.Epochs",
	"neural.Trainer.Seed",

	"baselines.PercentileConfig.Experts",
	"baselines.PercentileConfig.Window",
	"baselines.PercentileConfig.Eval",

	"baselines.HillClimbingConfig.Initial",
	"baselines.HillClimbingConfig.DeltaS",
	"baselines.HillClimbingConfig.Window",
	"baselines.HillClimbingConfig.Eval",

	"baselines.AdaptSizeConfig.Window",
	"baselines.AdaptSizeConfig.Eval",
	"baselines.AdaptSizeConfig.Seed",

	"faults.Config.Seed",
	"faults.Config.ErrorRate",
	"faults.Config.SpikeRate",
	"faults.Config.Spike",
	"faults.Config.StallRate",
	"faults.Config.Stall",
	"faults.Config.TruncateRate",
	"faults.Config.Outages",

	"cache.Config.HOCBytes",
	"cache.Config.DCBytes",
	"cache.Config.HOCEviction",
	"cache.Config.DCEviction",
	"cache.Config.Expert",
	"cache.Config.DCLog",
}

// goneLearnerFields were knobs no caller outside tests ever set twice; each
// is a constant, a derived value, or (cache.Config.BloomObjects) an
// unexported field now.
var goneLearnerFields = []string{
	"core.OnlineConfig.Delta",
	"core.OnlineConfig.MaxRounds",
	"core.OnlineConfig.Neff",
	"core.OnlineConfig.VarFloor",
	"core.OnlineConfig.InitialExpert",
	"core.OnlineConfig.UniformBandit",
	"core.TrainConfig.PredictorHidden",
	"core.TrainConfig.PredictorTrainer",
	"core.TrainConfig.TrainAllPairs",
	"core.DatasetConfig.Features",
	"core.DatasetConfig.Parallelism",
	"core.EvictionSelectorConfig.Policies",
	"core.EvictionSelectorConfig.Delta",
	"core.EvictionSelectorConfig.StabilityRounds",
	"core.EvictionSelectorConfig.RewardVariance",
	"core.EvictionSelectorConfig.Objective",
	"bandit.Config.M",
	"bandit.Config.C",
	"bandit.Config.Uniform",
	"cluster.Config.MaxIter",
	"cluster.Config.Restarts",
	"neural.Trainer.LR",
	"neural.Trainer.Momentum",
	"neural.Trainer.BatchSize",
	"neural.Trainer.L2",
	"baselines.PercentileConfig.FreqPct",
	"baselines.PercentileConfig.SizePct",
	"baselines.HillClimbingConfig.DeltaF",
	"baselines.HillClimbingConfig.MinFreq",
	"baselines.HillClimbingConfig.MinSize",
	"baselines.AdaptSizeConfig.Candidates",
	"baselines.AdaptSizeConfig.InitialC",
	"faults.Config.ErrorStatus",
	"faults.Config.TruncateFrac",
	"cache.Config.BloomObjects",
}

// TestConfigSurface pins the learner tier's settable surface: adding a knob
// is a visible diff to learnerSurface, and a deleted knob cannot come back
// unnoticed.
func TestConfigSurface(t *testing.T) {
	var got []string
	for _, c := range []any{
		core.OnlineConfig{}, core.TrainConfig{}, core.DatasetConfig{}, core.EvictionSelectorConfig{},
		bandit.Config{}, cluster.Config{}, neural.Trainer{},
		baselines.PercentileConfig{}, baselines.HillClimbingConfig{}, baselines.AdaptSizeConfig{},
		faults.Config{}, cache.Config{},
	} {
		typ := reflect.TypeOf(c)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, typ.String()+"."+f.Name)
			}
		}
	}
	for _, f := range got {
		if !slices.Contains(learnerSurface, f) {
			t.Errorf("new config field %s: add it to learnerSurface, with the caller that sets it twice", f)
		}
	}
	for _, f := range learnerSurface {
		if !slices.Contains(got, f) {
			t.Errorf("config field %s is gone: drop it from learnerSurface", f)
		}
	}
	for _, f := range goneLearnerFields {
		if slices.Contains(got, f) {
			t.Errorf("deleted config field %s is back", f)
		}
	}
}
