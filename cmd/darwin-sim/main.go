// Command darwin-sim runs the cache simulator on a trace under a chosen
// policy: a static expert, Darwin (trained on a synthetic corpus or on
// provided training traces), or one of the adaptive baselines.
//
// Usage:
//
//	darwin-sim -trace t.txt -policy static -f 3 -s 20480
//	darwin-sim -trace t.txt -policy darwin -objective ohr
//	darwin-sim -trace t.txt -policy percentile
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"darwin/internal/baselines"
	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/exp"
	"darwin/internal/par"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// options are the command's flags.
type options struct {
	tracePath, policy, objective, modelPath string
	f, n, parallelism                       int
	s, seed                                 int64
	eval                                    cache.EvalConfig
}

// registerFlags declares darwin-sim's flags on fs, with the defaults of
// cache.DefaultEvalConfig() and exp.Default().
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{eval: cache.DefaultEvalConfig()}
	fs.StringVar(&o.tracePath, "trace", "", "trace file (id size time per line); empty generates a synthetic 50:50 mix")
	fs.StringVar(&o.policy, "policy", "darwin", "static | darwin | percentile | hillclimbing-1k | hillclimbing-10k | adaptsize | directmapping | tinylfu")
	fs.IntVar(&o.f, "f", 2, "static expert frequency threshold")
	fs.Int64Var(&o.s, "s", 10<<10, "static expert size threshold (bytes)")
	fs.Int64Var(&o.eval.HOCBytes, "hoc", o.eval.HOCBytes, "HOC bytes")
	fs.Int64Var(&o.eval.DCBytes, "dc", o.eval.DCBytes, "DC bytes")
	fs.Float64Var(&o.eval.WarmupFrac, "warmup", o.eval.WarmupFrac, "warm-up fraction excluded from metrics")
	fs.StringVar(&o.objective, "objective", "ohr", "darwin objective: ohr | bmr | combined")
	fs.IntVar(&o.n, "n", exp.Default().OnlineTraceLen, "synthetic trace length when -trace is empty")
	fs.Int64Var(&o.seed, "seed", 7, "synthetic trace seed")
	fs.StringVar(&o.modelPath, "model", "", "pre-trained model from darwin-train (darwin policy only; skips offline training)")
	fs.IntVar(&o.parallelism, "parallelism", runtime.NumCPU(), "worker count for offline training sweeps; 1 forces the serial path")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "darwin-sim:", err)
		os.Exit(1)
	}
}

// buildCorpus is the offline phase, run for darwin without -model and for
// directmapping only; a variable so a test can see when and on what scale
// darwin-sim trains.
var buildCorpus = exp.BuildCorpus

// run replays the trace the options name under o.policy and writes the
// metrics to w. Training uses exp.Default()'s corpus shape with the flags'
// cache, whatever the trace's length: the replayed trace sizes only the
// adaptive baselines' windows.
func (o *options) run(w io.Writer) error {
	par.SetDefault(o.parallelism)
	// A cache flag out of range (-warmup 1, say) is an error before any
	// training, not after it.
	if _, err := o.eval.New(cache.Expert{}); err != nil {
		return err
	}
	tr, err := loadTrace(o.tracePath, o.n, o.seed)
	if err != nil {
		return err
	}
	sc := exp.Default()
	sc.Eval = o.eval

	var m cache.Metrics
	switch o.policy {
	case "static":
		m, err = cache.Evaluate(tr, cache.Expert{Freq: o.f, MaxSize: o.s}, sc.Eval)
	case "darwin":
		var model *core.Model
		if o.modelPath != "" {
			var fd *os.File
			fd, err = os.Open(o.modelPath)
			if err == nil {
				model, err = core.ReadModel(fd)
				fd.Close()
			}
		} else {
			fmt.Fprintln(os.Stderr, "darwin-sim: training Darwin on a synthetic corpus (this runs the full offline phase)...")
			var c *exp.Corpus
			c, err = buildCorpus(sc, o.objective)
			if err == nil {
				model = c.Model
			}
		}
		if err == nil {
			c := &exp.Corpus{Scale: sc, Model: model}
			c.Scale.Experts = model.Experts
			if model.FeatureWindow > 0 {
				c.Scale.Online.Warmup = model.FeatureWindow
			}
			var diags []core.EpochDiag
			m, diags, err = exp.RunDarwin(c, tr)
			for _, d := range diags {
				fmt.Fprintf(os.Stderr, "epoch %d: cluster %d, %d candidate experts, %d rounds (%s), deployed %s\n",
					d.Epoch, d.Cluster, d.SetSize, d.Rounds, d.StopReason, d.Chosen)
			}
		}
	default:
		// Only directmapping learns offline; the other baselines read the
		// scale alone.
		c := &exp.Corpus{Scale: sc}
		if o.policy == "directmapping" {
			fmt.Fprintln(os.Stderr, "darwin-sim: training offline corpus for baseline construction...")
			c, err = buildCorpus(sc, o.objective)
		}
		if err == nil {
			c.Scale.OnlineTraceLen = tr.Len()
			var srv baselines.Server
			srv, err = exp.NewBaseline(o.policy, c)
			if err == nil {
				m = baselines.Play(srv, tr, sc.Eval.WarmupFrac)
			}
		}
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "trace:              %s (%d requests)\n", tr.Name, tr.Len())
	fmt.Fprintf(w, "policy:             %s\n", o.policy)
	fmt.Fprintf(w, "HOC OHR:            %.4f\n", m.OHR())
	fmt.Fprintf(w, "total OHR (HOC+DC): %.4f\n", m.TotalOHR())
	fmt.Fprintf(w, "HOC BMR:            %.4f\n", m.BMR())
	fmt.Fprintf(w, "disk writes:        %d objects, %.1f MB (%.1f B/request)\n",
		m.DCWrites, float64(m.DCWriteBytes)/(1<<20), m.DiskWritesPerRequest())
	fmt.Fprintf(w, "origin fetches:     %d (%.1f MB midgress)\n", m.Misses, float64(m.MissBytes)/(1<<20))
	return nil
}

func loadTrace(path string, n int, seed int64) (*trace.Trace, error) {
	if path == "" {
		return tracegen.ImageDownloadMix(50, n, seed)
	}
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	return trace.Read(fd, path)
}
