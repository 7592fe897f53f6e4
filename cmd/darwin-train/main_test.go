package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/exp"
)

// TestWarmupFlagOnSyntheticCorpus: -warmup sets the training feature
// window on the synthetic corpus as it does on trace files, so the model
// written matches the N_warmup it will be deployed with.
func TestWarmupFlagOnSyntheticCorpus(t *testing.T) {
	fs := flag.NewFlagSet("darwin-train", flag.ContinueOnError)
	o := registerFlags(fs)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := fs.Parse([]string{"-scale", "small", "-clusters", "2", "-warmup", "3000", "-o", path}); err != nil {
		t.Fatal(err)
	}
	if err := o.run(); err != nil {
		t.Fatal(err)
	}
	fd, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	m, err := core.ReadModel(fd)
	if err != nil {
		t.Fatal(err)
	}
	if m.FeatureWindow != 3000 {
		t.Fatalf("model feature window %d, want 3000", m.FeatureWindow)
	}
}

// TestFlagDefaultsDeclaredOnce: every flag bound to a setting another
// package owns shows that package's default, and every default is pinned.
func TestFlagDefaultsDeclaredOnce(t *testing.T) {
	fs := flag.NewFlagSet("darwin-train", flag.ContinueOnError)
	registerFlags(fs)
	eval, def := cache.DefaultEvalConfig(), exp.Default()
	owned := map[string]any{
		"hoc":      eval.HOCBytes,
		"dc":       eval.DCBytes,
		"clusters": def.NumClusters,
		"theta":    def.ThetaPct,
		"seed":     def.Seed,
		"warmup":   def.Online.Warmup,
	}
	pinned := map[string]string{
		"o": "model.json", "traces": "", "objective": "ohr", "clusters": "8", "theta": "1",
		"hoc": "2097152", "dc": "209715200", "warmup": "6000", "scale": "default", "seed": "1",
	}
	for name, want := range owned {
		if f := fs.Lookup(name); f == nil || f.DefValue != fmt.Sprint(want) {
			t.Errorf("flag -%s: %+v, want its owning package's default %v", name, f, want)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if want, ok := pinned[f.Name]; !ok {
			t.Errorf("flag -%s has no pinned default", f.Name)
		} else if f.DefValue != want {
			t.Errorf("flag -%s defaults to %q, want %q", f.Name, f.DefValue, want)
		}
	})
	for name := range pinned {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s is not registered", name)
		}
	}
}
