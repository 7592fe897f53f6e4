package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"darwin/internal/core"
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
