// Command darwin-train runs Darwin's offline phase (Figure 3, steps 1a/1b)
// and writes the trained model to a file that darwin-proxy and darwin-sim
// load: an edge server runs only the online phase, over the model it is
// given. The file is a DRWNMODL frame (core.WriteModel): the model's JSON
// wrapped in a magic number, a format version and a CRC, so a truncated or
// foreign file is refused on load. The file is not plain JSON, although
// -o's default name is still model.json.
//
// Usage:
//
//	darwin-train -o model.json                          # synthetic corpus
//	darwin-train -traces 'traces/*.txt' -o model.json   # real trace files
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/exp"
	"darwin/internal/persist"
	"darwin/internal/trace"
)

// options are the command's flags.
type options struct {
	out, traces, objective, scale string
	clusters, warmup              int
	theta                         float64
	seed                          int64
	eval                          cache.EvalConfig
}

// registerFlags declares darwin-train's flags on fs, with the defaults of
// cache.DefaultEvalConfig() and exp.Default().
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{eval: cache.DefaultEvalConfig()}
	def := exp.Default()
	fs.StringVar(&o.out, "o", "model.json", "output model file")
	fs.StringVar(&o.traces, "traces", "", "glob of training trace files; empty generates a synthetic corpus")
	fs.StringVar(&o.objective, "objective", "ohr", "objective: ohr | bmr | combined")
	fs.IntVar(&o.clusters, "clusters", def.NumClusters, "number of K-means clusters")
	fs.Float64Var(&o.theta, "theta", def.ThetaPct, "expert-set threshold percent")
	fs.Int64Var(&o.eval.HOCBytes, "hoc", o.eval.HOCBytes, "HOC bytes")
	fs.Int64Var(&o.eval.DCBytes, "dc", o.eval.DCBytes, "DC bytes")
	fs.IntVar(&o.warmup, "warmup", def.Online.Warmup, "online warm-up length the model will be used with (aligns training features)")
	fs.StringVar(&o.scale, "scale", "default", "synthetic corpus scale: small | default")
	fs.Int64Var(&o.seed, "seed", def.Seed, "training seed")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.run(); err != nil {
		fatal(err)
	}
}

// run trains the model the options describe and writes it to o.out.
func (o *options) run() error {
	start := time.Now()
	model, err := o.train()
	if err != nil {
		return err
	}
	// Buffer the model and land it atomically: a crash or full disk mid-write
	// must never leave a torn model file where a good one stood.
	var buf bytes.Buffer
	if err := core.WriteModel(&buf, model); err != nil {
		return err
	}
	if err := persist.WriteFileAtomic(o.out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	trained := 0
	for _, row := range model.Predictors {
		for _, n := range row {
			if n != nil {
				trained++
			}
		}
	}
	fmt.Fprintf(os.Stderr, "darwin-train: wrote %s (%d clusters, %d predictors) in %v\n",
		o.out, model.Clusters.K(), trained, time.Since(start).Round(time.Millisecond))
	return nil
}

// train runs the offline phase on the synthetic corpus, or on the trace
// files o.traces names. Both extract training features over -warmup
// requests.
func (o *options) train() (*core.Model, error) {
	if o.traces == "" {
		var sc exp.Scale
		switch o.scale {
		case "small":
			sc = exp.Small()
		case "default":
			sc = exp.Default()
		default:
			return nil, fmt.Errorf("unknown scale %q", o.scale)
		}
		sc.Eval = o.eval
		sc.Online.Warmup = o.warmup
		sc.NumClusters = o.clusters
		sc.ThetaPct = o.theta
		sc.Seed = o.seed
		fmt.Fprintf(os.Stderr, "darwin-train: building synthetic corpus (%s scale)...\n", o.scale)
		c, err := exp.BuildCorpus(sc, o.objective)
		if err != nil {
			return nil, err
		}
		return c.Model, nil
	}
	obj, err := core.ObjectiveByName(o.objective)
	if err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(o.traces)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no traces match %q", o.traces)
	}
	var traces []*trace.Trace
	for _, p := range paths {
		fd, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		tr, err := trace.Read(fd, filepath.Base(p))
		fd.Close()
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	fmt.Fprintf(os.Stderr, "darwin-train: evaluating %d traces x %d experts...\n",
		len(traces), len(cache.DefaultGrid()))
	ds, err := core.BuildDataset(traces, core.DatasetConfig{
		Eval:          o.eval,
		FeatureWindow: o.warmup,
	})
	if err != nil {
		return nil, err
	}
	return core.Train(ds, core.TrainConfig{
		Objective:   obj,
		NumClusters: o.clusters,
		ThetaPct:    o.theta,
		Seed:        o.seed,
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "darwin-train:", err)
	os.Exit(1)
}
