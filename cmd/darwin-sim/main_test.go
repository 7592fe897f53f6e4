package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"reflect"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/exp"
)

// errStubCorpus ends a run at its offline phase.
var errStubCorpus = errors.New("stub corpus")

// TestTrainingScaleIgnoresReplayedTrace: the corpus darwin-sim trains on has
// exp.Default()'s shape whatever the replayed trace's length. Sizing it from
// the replayed trace made the offline phase generate one test trace per mix,
// each as long as that trace, which nothing reads.
func TestTrainingScaleIgnoresReplayedTrace(t *testing.T) {
	var trained []exp.Scale
	buildCorpus = func(sc exp.Scale, _ string) (*exp.Corpus, error) {
		trained = append(trained, sc)
		return nil, errStubCorpus
	}
	defer func() { buildCorpus = exp.BuildCorpus }()

	for _, n := range []string{"3000", "6000"} {
		fs := flag.NewFlagSet("darwin-sim", flag.ContinueOnError)
		o := registerFlags(fs)
		if err := fs.Parse([]string{"-policy", "directmapping", "-n", n, "-parallelism", "1"}); err != nil {
			t.Fatal(err)
		}
		if err := o.run(io.Discard); !errors.Is(err, errStubCorpus) {
			t.Fatalf("run returned %v, want the stub's error", err)
		}
	}
	want := exp.Default()
	if len(trained) != 2 {
		t.Fatalf("trained %d times, want 2", len(trained))
	}
	for _, sc := range trained {
		if !reflect.DeepEqual(sc, want) {
			t.Errorf("trained on a scale other than exp.Default() (OnlineTraceLen %d, want %d)", sc.OnlineTraceLen, want.OnlineTraceLen)
		}
	}
}

// TestOnlyOfflineLearnersTrain: the baselines that learn online read only
// the scale, so they replay without the offline phase; directmapping, which
// trains its network on the corpus's dataset, still builds one.
func TestOnlyOfflineLearnersTrain(t *testing.T) {
	buildCorpus = func(exp.Scale, string) (*exp.Corpus, error) {
		t.Error("built a corpus for a baseline that does not read one")
		return nil, errStubCorpus
	}
	defer func() { buildCorpus = exp.BuildCorpus }()
	for _, policy := range []string{"percentile", "hillclimbing-1k", "hillclimbing-10k", "adaptsize", "tinylfu"} {
		fs := flag.NewFlagSet("darwin-sim", flag.ContinueOnError)
		o := registerFlags(fs)
		if err := fs.Parse([]string{"-policy", policy, "-n", "3000", "-parallelism", "1"}); err != nil {
			t.Fatal(err)
		}
		if err := o.run(io.Discard); err != nil {
			t.Errorf("-policy %s: %v", policy, err)
		}
	}

	built := 0
	buildCorpus = func(exp.Scale, string) (*exp.Corpus, error) {
		built++
		return nil, errStubCorpus
	}
	fs := flag.NewFlagSet("darwin-sim", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse([]string{"-policy", "directmapping", "-n", "3000", "-parallelism", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := o.run(io.Discard); !errors.Is(err, errStubCorpus) || built != 1 {
		t.Fatalf("-policy directmapping: run returned %v after %d corpus builds, want the stub's error after 1", err, built)
	}
}

// TestFlagDefaultsDeclaredOnce: every flag bound to a setting another
// package owns shows that package's default, and every default is pinned.
func TestFlagDefaultsDeclaredOnce(t *testing.T) {
	fs := flag.NewFlagSet("darwin-sim", flag.ContinueOnError)
	registerFlags(fs)
	eval := cache.DefaultEvalConfig()
	owned := map[string]any{
		"hoc":    eval.HOCBytes,
		"dc":     eval.DCBytes,
		"warmup": eval.WarmupFrac,
		"n":      exp.Default().OnlineTraceLen,
	}
	pinned := map[string]string{
		"trace": "", "policy": "darwin", "f": "2", "s": "10240",
		"hoc": "2097152", "dc": "209715200", "warmup": "0.1",
		"objective": "ohr", "n": "200000", "seed": "7", "model": "",
	}
	for name, want := range owned {
		if f := fs.Lookup(name); f == nil || f.DefValue != fmt.Sprint(want) {
			t.Errorf("flag -%s: %+v, want its owning package's default %v", name, f, want)
		}
	}
	// -parallelism defaults to the host's CPU count.
	fs.VisitAll(func(f *flag.Flag) {
		if want, ok := pinned[f.Name]; !ok && f.Name != "parallelism" {
			t.Errorf("flag -%s has no pinned default", f.Name)
		} else if ok && f.DefValue != want {
			t.Errorf("flag -%s defaults to %q, want %q", f.Name, f.DefValue, want)
		}
	})
	for name := range pinned {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s is not registered", name)
		}
	}
}

// TestBadWarmupRejected: a -warmup outside [0, 1) is an error under every
// policy, before any training; at 1 the static policy used to print
// whole-trace metrics, cold start included.
func TestBadWarmupRejected(t *testing.T) {
	buildCorpus = func(exp.Scale, string) (*exp.Corpus, error) {
		t.Fatal("trained before rejecting -warmup")
		return nil, nil
	}
	defer func() { buildCorpus = exp.BuildCorpus }()
	for _, policy := range []string{"static", "darwin", "percentile"} {
		for _, warmup := range []string{"1.0", "1.5", "-0.1", "NaN"} {
			fs := flag.NewFlagSet("darwin-sim", flag.ContinueOnError)
			o := registerFlags(fs)
			if err := fs.Parse([]string{"-policy", policy, "-warmup", warmup, "-n", "2000"}); err != nil {
				t.Fatal(err)
			}
			if err := o.run(io.Discard); err == nil {
				t.Errorf("-policy %s -warmup %s: run succeeded, want an error", policy, warmup)
			}
		}
	}
}
