package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/diskcache"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// TestConfigFromFlags: the model file selects the decider. Without -model
// the node runs the static expert; with a file core.WriteModel wrote it runs
// the controller over that model, at core.DefaultOnlineConfig() warmed up
// over the model's feature window; a missing or corrupt file is an error
// before anything listens. -fsync sets the journal's fsync policy, and a
// policy it does not name is a flag error.
func TestConfigFromFlags(t *testing.T) {
	var traces []*trace.Trace
	for seed := int64(0); seed < 3; seed++ {
		tr, err := tracegen.ImageDownloadMix(50, 3000, 100+seed)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	ds, err := core.BuildDataset(traces, core.DatasetConfig{
		Experts:       cache.Grid([]int{1, 3}, []int64{2 << 10, 20 << 10}),
		Eval:          cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20, WarmupFrac: 0.1},
		FeatureWindow: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(ds, core.TrainConfig{NumClusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "model.json")
	fd, err := os.Create(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteModel(fd, model); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantOnline := core.DefaultOnlineConfig()
	wantOnline.Warmup = 1500

	static := []string{"-f", "1", "-s", "1024"}
	for _, tc := range []struct {
		name     string
		args     []string
		parseErr bool // the flags do not parse
		wantErr  bool
		model    bool
		sync     diskcache.SyncPolicy
	}{
		{name: "static", args: static},
		{name: "model", args: []string{"-model", good}, model: true},
		{name: "missing model", args: []string{"-model", filepath.Join(dir, "absent.json")}, wantErr: true},
		{name: "corrupt model", args: []string{"-model", corrupt}, wantErr: true},
		{name: "fsync always", args: append([]string{"-fsync", "always"}, static...), sync: diskcache.SyncAlways},
		{name: "fsync off", args: append([]string{"-fsync", "off"}, static...), sync: diskcache.SyncOff},
		// batch is the default: the later flag must overwrite the earlier.
		{name: "fsync batch", args: append([]string{"-fsync", "off", "-fsync", "batch"}, static...), sync: diskcache.SyncBatch},
		{name: "fsync sometimes", args: []string{"-fsync", "sometimes"}, parseErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("darwin-proxy", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o := registerFlags(fs)
			if err := fs.Parse(tc.args); (err != nil) != tc.parseErr {
				t.Fatalf("parse: %v, want an error: %v", err, tc.parseErr)
			} else if tc.parseErr {
				return
			}
			cfg, err := o.config()
			if (err != nil) != tc.wantErr {
				t.Fatalf("config: %v, want an error: %v", err, tc.wantErr)
			}
			if tc.wantErr {
				return
			}
			if cfg.Store.Sync != tc.sync {
				t.Fatalf("journal fsync policy %v, want %v", cfg.Store.Sync, tc.sync)
			}
			if !tc.model {
				if cfg.Model != nil || cfg.Online != (core.OnlineConfig{}) || cfg.Expert != (cache.Expert{Freq: 1, MaxSize: 1024}) {
					t.Fatalf("static config: model %v, online %+v, expert %+v", cfg.Model != nil, cfg.Online, cfg.Expert)
				}
				return
			}
			if cfg.Model == nil || !reflect.DeepEqual(cfg.Model.Experts, model.Experts) || cfg.Model.FeatureWindow != 1500 {
				t.Fatal("config does not carry the model file's model")
			}
			if cfg.Online != wantOnline {
				t.Fatalf("online config %+v, want %+v", cfg.Online, wantOnline)
			}
		})
	}
}
