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
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"darwin/internal/exp"
	"darwin/internal/features"
	"darwin/internal/par"
	"darwin/internal/trace"
)

// experiment is one -only id: it returns its reports in print order.
type experiment struct {
	id  string
	run func(r *session) ([]*exp.Report, error)
}

// session is one serial run at one scale. Each corpus the experiments share
// is built at most once, on first use: the OHR corpus, the prototype corpus
// and the 5x-scaled corpus (Figure 4b).
type session struct {
	sc                 exp.Scale
	ohr, proto, scaled func() (*exp.Corpus, error)
}

func newSession(sc exp.Scale) *session {
	s := &session{sc: sc}
	s.ohr = sync.OnceValues(func() (*exp.Corpus, error) { return exp.BuildCorpus(sc, "ohr") })
	s.proto = sync.OnceValues(func() (*exp.Corpus, error) { return exp.BuildCorpus(exp.PrototypeScale(sc), "ohr") })
	s.scaled = sync.OnceValues(func() (*exp.Corpus, error) {
		base, err := s.ohr()
		if err != nil {
			return nil, err
		}
		return exp.ScaledCorpus(base, 5)
	})
	return s
}

// prototype returns the corpus, config and replay trace fig4c and fig7 share.
func (s *session) prototype() (*exp.Corpus, exp.PrototypeConfig, *trace.Trace, error) {
	pc := exp.DefaultPrototypeConfig()
	c, err := s.proto()
	if err != nil {
		return nil, pc, nil, err
	}
	tr, err := exp.PrototypeTrace(c, pc.TraceLen)
	return c, pc, tr, err
}

// one adapts a single-report function's results to experiment.run's.
func one(r *exp.Report, err error) ([]*exp.Report, error) {
	if err != nil {
		return nil, err
	}
	return []*exp.Report{r}, nil
}

// onCorpus adapts an experiment over the session's OHR-trained corpus.
func onCorpus(f func(c *exp.Corpus) ([]*exp.Report, error)) func(*session) ([]*exp.Report, error) {
	return func(r *session) ([]*exp.Report, error) {
		c, err := r.ohr()
		if err != nil {
			return nil, err
		}
		return f(c)
	}
}

// experiments is every experiment in run order.
var experiments = []experiment{
	{"table1", func(*session) ([]*exp.Report, error) { return []*exp.Report{exp.Table1()}, nil }},
	{"fig2", func(r *session) ([]*exp.Report, error) { return exp.Fig2Suite(r.sc) }},
	{"fig4a", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		rep, _, diags, err := exp.Fig4Compare(c, "Figure 4a: Darwin vs baselines (simulation)")
		if err != nil {
			return nil, err
		}
		return []*exp.Report{rep, exp.Fig5dBanditRounds(diags)}, nil
	})},
	{"fig4b", func(r *session) ([]*exp.Report, error) {
		c, err := r.scaled()
		if err != nil {
			return nil, err
		}
		rep, _, _, err := exp.Fig4Compare(c, "Figure 4b: Darwin vs baselines (5x scaled cache)")
		return one(rep, err)
	}},
	{"fig4c", func(r *session) ([]*exp.Report, error) {
		c, _, tr, err := r.prototype()
		if err != nil {
			return nil, err
		}
		return one(exp.Fig4cPrototypeOHR(c, tr))
	}},
	{"fig5a", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.Fig5aFeatureConvergence(c.Train, features.DefaultConfig(),
			[]float64{0.01, 0.03, 0.1, 0.3, 0.5, 0.9}))
	})},
	{"fig5b", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.Fig5bClusterReduction(c.Dataset, c.Scale.NumClusters, []float64{1, 2, 5}, c.Scale.Seed))
	})},
	{"fig5c", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.Fig5cPredictorAccuracy(c.Model, c.Dataset.Records, []float64{1, 2, 5}))
	})},
	{"fig10", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.Fig10OutOfDistribution(c, []float64{1, 2, 5}))
	})},
	{"fig6a", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.Fig6Objective(c, "bmr", "Figure 6a: HOC byte miss ratio objective"))
	})},
	{"fig6b", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.Fig6Objective(c, "combined", "Figure 6b: OHR - disk-write objective"))
	})},
	{"fig7", func(r *session) ([]*exp.Report, error) {
		c, pc, tr, err := r.prototype()
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
	{"fig11", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.Fig11ThreeKnob(c, []float64{1, 5}))
	})},
	{"overhead", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		return one(exp.OverheadReport(c, c.Test[0]))
	})},
	{"chaos", func(*session) ([]*exp.Report, error) {
		return one(exp.ChaosReport(exp.DefaultChaosConfig()))
	}},
	{"crash", func(r *session) ([]*exp.Report, error) {
		cc := exp.DefaultCrashConfig()
		cc.Scale = r.sc
		return one(exp.CrashRecoveryReport(cc))
	}},
	{"cluster", func(*session) ([]*exp.Report, error) {
		return one(exp.ClusterReport(exp.DefaultClusterConfig()))
	}},
	{"flap", func(*session) ([]*exp.Report, error) {
		return one(exp.FlapReport(exp.DefaultFlapConfig()))
	}},
	{"overload", func(*session) ([]*exp.Report, error) {
		return one(exp.OverloadReport(exp.DefaultOverloadConfig()))
	}},
	{"ablations", onCorpus(func(c *exp.Corpus) ([]*exp.Report, error) {
		n := c.Scale.Online.Round
		var reps []*exp.Report
		for _, f := range []func() (*exp.Report, error){
			func() (*exp.Report, error) { return exp.AblationSideInfo(c) },
			func() (*exp.Report, error) { return exp.AblationRoundsVsK([]int{4, 8, 16}) },
			func() (*exp.Report, error) { return exp.AblationStopping(c) },
			func() (*exp.Report, error) { return exp.AblationRoundLength(c, []int{n / 2, n, n * 2}) },
			func() (*exp.Report, error) { return exp.AblationPredictorFeatures(c) },
			func() (*exp.Report, error) { return exp.AblationEviction(c.Scale) },
		} {
			rep, err := f()
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
		}
		return reps, nil
	})},
	{"future", func(r *session) ([]*exp.Report, error) {
		return one(exp.FutureEvictionSelection(r.sc))
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

	r := newSession(sc)
	for _, e := range selected {
		start := time.Now()
		if err := e.print(os.Stdout, r); err != nil {
			fatal(err)
		}
		fmt.Printf("--- %s done in %v ---\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}

// print runs e in session r and writes its header line and reports to w.
func (e experiment) print(w io.Writer, r *session) error {
	fmt.Fprintf(w, "--- running %s ---\n", e.id)
	reps, err := e.run(r)
	if err != nil {
		return fmt.Errorf("%s: %w", e.id, err)
	}
	for _, r := range reps {
		fmt.Fprintln(w, r.String())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
