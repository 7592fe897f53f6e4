// Command experiments regenerates every table and figure of the paper's
// evaluation (§6, Appendix A.3) at a chosen scale and prints the rows/series
// the paper reports. See DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	experiments                 # all experiments at benchmark ("small") scale
//	experiments -scale default  # the fuller scaled operating point
//	experiments -only fig4a,table2
//	experiments -only crash     # SIGKILL crash-recovery chaos arm
//
// An id that names no experiment is a usage error listing the valid ids.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"darwin/internal/exp"
	"darwin/internal/features"
	"darwin/internal/par"
	"darwin/internal/trace"
)

// experiment is one -only id: it returns its reports in print order.
type experiment struct {
	id  string
	run func(sc exp.Scale, shards int) ([]*exp.Report, error)
}

// one adapts a single-report function's results to experiment.run's.
func one(r *exp.Report, err error) ([]*exp.Report, error) {
	if err != nil {
		return nil, err
	}
	return []*exp.Report{r}, nil
}

// onCorpus adapts an experiment over the scale's OHR-trained corpus.
func onCorpus(f func(c *exp.Corpus) ([]*exp.Report, error)) func(exp.Scale, int) ([]*exp.Report, error) {
	return func(sc exp.Scale, _ int) ([]*exp.Report, error) {
		c, err := exp.CachedCorpus(sc, "ohr")
		if err != nil {
			return nil, err
		}
		return f(c)
	}
}

// prototype builds the corpus, config and replay trace fig4c and fig7 share.
func prototype(sc exp.Scale, shards int) (*exp.Corpus, exp.PrototypeConfig, *trace.Trace, error) {
	pc := exp.DefaultPrototypeConfig()
	pc.Shards = shards
	c, err := exp.CachedCorpus(exp.PrototypeScale(sc), "ohr")
	if err != nil {
		return nil, pc, nil, err
	}
	tr, err := exp.PrototypeTrace(c, pc.TraceLen)
	return c, pc, tr, err
}

// experiments is every experiment in run order.
var experiments = []experiment{
	{"table1", func(exp.Scale, int) ([]*exp.Report, error) { return []*exp.Report{exp.Table1()}, nil }},
	{"fig2", func(sc exp.Scale, _ int) ([]*exp.Report, error) { return exp.Fig2Suite(sc) }},
	{"fig4a", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		rep, _, diags, err := exp.Fig4Compare(c, "Figure 4a: Darwin vs baselines (simulation)")
		if err != nil {
			return nil, err
		}
		return []*exp.Report{rep, exp.Fig5dBanditRounds(diags)}, nil
	})},
	{"fig4b", func(sc exp.Scale, _ int) ([]*exp.Report, error) {
		c, err := exp.ScaledCorpus(sc, 5)
		if err != nil {
			return nil, err
		}
		rep, _, _, err := exp.Fig4Compare(c, "Figure 4b: Darwin vs baselines (5x scaled cache)")
		return one(rep, err)
	}},
	{"fig4c", func(sc exp.Scale, shards int) ([]*exp.Report, error) {
		c, pc, tr, err := prototype(sc, shards)
		if err != nil {
			return nil, err
		}
		return one(exp.Fig4cPrototypeOHR(c, pc, tr))
	}},
	{"fig5a", func(sc exp.Scale, _ int) ([]*exp.Report, error) {
		train, _, err := exp.BuildTraces(sc)
		if err != nil {
			return nil, err
		}
		return one(exp.Fig5aFeatureConvergence(train, features.DefaultConfig(),
			[]float64{0.01, 0.03, 0.1, 0.3, 0.5, 0.9}))
	}},
	{"fig5b", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.Fig5bClusterReduction(c.Dataset, c.Scale.NumClusters, []float64{1, 2, 5}, c.Scale.Seed))
	})},
	{"fig5c", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.Fig5cPredictorAccuracy(c.Model, c.Dataset.Records, []float64{1, 2, 5}))
	})},
	{"fig10", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.Fig10OutOfDistribution(c, []float64{1, 2, 5}))
	})},
	{"fig6a", func(sc exp.Scale, _ int) ([]*exp.Report, error) {
		return one(exp.Fig6Objective(sc, "bmr", "Figure 6a: HOC byte miss ratio objective"))
	}},
	{"fig6b", func(sc exp.Scale, _ int) ([]*exp.Report, error) {
		return one(exp.Fig6Objective(sc, "combined", "Figure 6b: OHR - disk-write objective"))
	}},
	{"fig7", func(sc exp.Scale, shards int) ([]*exp.Report, error) {
		c, pc, tr, err := prototype(sc, shards)
		if err != nil {
			return nil, err
		}
		lat, err := exp.Fig7aLatency(c, pc, tr)
		if err != nil {
			return nil, err
		}
		tput, err := exp.Fig7bThroughput(c, pc, tr)
		if err != nil {
			return nil, err
		}
		return []*exp.Report{lat, tput}, nil
	}},
	{"table2", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) { return one(exp.Table2(c)) })},
	{"fig11", func(sc exp.Scale, _ int) ([]*exp.Report, error) {
		return one(exp.Fig11ThreeKnob(sc, []float64{1, 5}))
	}},
	{"overhead", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.OverheadReport(c, c.Test[0]))
	})},
	{"chaos", func(_ exp.Scale, shards int) ([]*exp.Report, error) {
		cc := exp.DefaultChaosConfig()
		cc.Prototype.Shards = shards
		return one(exp.ChaosReport(cc))
	}},
	{"crash", func(sc exp.Scale, shards int) ([]*exp.Report, error) {
		cc := exp.DefaultCrashConfig()
		cc.Scale = sc
		cc.Shards = shards
		return one(exp.CrashRecoveryReport(cc))
	}},
	{"cluster", func(exp.Scale, int) ([]*exp.Report, error) {
		return one(exp.ClusterReport(exp.DefaultClusterConfig()))
	}},
	{"flap", func(exp.Scale, int) ([]*exp.Report, error) {
		return one(exp.FlapReport(exp.DefaultFlapConfig()))
	}},
	{"overload", func(_ exp.Scale, shards int) ([]*exp.Report, error) {
		oc := exp.DefaultOverloadConfig()
		oc.Prototype.Shards = shards
		return one(exp.OverloadReport(oc))
	}},
	{"ablations", func(sc exp.Scale, _ int) ([]*exp.Report, error) {
		var reps []*exp.Report
		for _, f := range []func() (*exp.Report, error){
			func() (*exp.Report, error) { return exp.AblationSideInfo(sc) },
			func() (*exp.Report, error) { return exp.AblationRoundsVsK([]int{4, 8, 16}) },
			func() (*exp.Report, error) { return exp.AblationStopping(sc) },
			func() (*exp.Report, error) {
				return exp.AblationRoundLength(sc, []int{sc.Online.Round / 2, sc.Online.Round, sc.Online.Round * 2})
			},
			func() (*exp.Report, error) { return exp.AblationPredictorFeatures(sc) },
			func() (*exp.Report, error) { return exp.AblationEviction(sc) },
		} {
			rep, err := f()
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
		}
		return reps, nil
	}},
	{"future", func(sc exp.Scale, _ int) ([]*exp.Report, error) {
		return one(exp.FutureEvictionSelection(sc))
	}},
}

// selectExperiments resolves -only's comma-separated ids against the table,
// in table order; empty selects everything. An id that names no experiment
// is an error listing the valid ones — a typo must not run nothing and exit 0.
func selectExperiments(only string) ([]experiment, error) {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment id %q; valid ids: %s", id, strings.Join(ids, ","))
		}
		want[id] = true
	}
	if len(want) == 0 {
		return experiments, nil
	}
	var sel []experiment
	for _, e := range experiments {
		if want[e.id] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

func main() {
	var (
		scaleName   = flag.String("scale", "small", "small | default")
		only        = flag.String("only", "", "comma-separated experiment ids (e.g. fig2,fig4a,table2); empty runs all")
		parallelism = flag.Int("parallelism", runtime.NumCPU(), "worker count for sweep evaluation; 1 forces the serial path")
		shards      = flag.Int("shards", 1, "cache engine shard count for the prototype/chaos proxies (1 = serial)")
	)
	flag.Parse()
	par.SetDefault(*parallelism)

	var sc exp.Scale
	switch *scaleName {
	case "small":
		sc = exp.Small()
	case "default":
		sc = exp.Default()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	selected, err := selectExperiments(*only)
	if err != nil {
		fatal(err)
	}

	for _, e := range selected {
		start := time.Now()
		fmt.Printf("--- running %s ---\n", e.id)
		reps, err := e.run(sc, *shards)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.id, err))
		}
		for _, r := range reps {
			fmt.Println(r.String())
		}
		fmt.Printf("--- %s done in %v ---\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
