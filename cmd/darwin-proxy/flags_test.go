package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/diskcache"
	"darwin/internal/server"
)

// TestFlagsDocumentedAndDefaultsDeclaredOnce is the guard against flag
// drift: every registered flag is named in README.md, and every flag bound
// to a config struct shows that struct's own default — the literal lives in
// the package that owns the setting, never a second time here.
func TestFlagsDocumentedAndDefaultsDeclaredOnce(t *testing.T) {
	fs := flag.NewFlagSet("darwin-proxy", flag.ContinueOnError)
	registerFlags(fs)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(string(readme), "`-"+f.Name+"`") {
			t.Errorf("flag -%s is not documented in README.md", f.Name)
		}
	})

	res, ov, eval := server.DefaultResilience(), server.DefaultOverload(), cache.DefaultEvalConfig()
	for name, want := range map[string]any{
		"hoc":           eval.HOCBytes,
		"dc":            eval.DCBytes,
		"retries":       res.MaxAttempts,
		"backoff":       res.BackoffBase,
		"brk-threshold": ov.BreakerThreshold,
		"brk-open-for":  ov.BreakerOpenFor,
		"fsync":         diskcache.Config{}.Sync,
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("flag -%s is not registered", name)
		} else if f.DefValue != fmt.Sprint(want) {
			t.Errorf("flag -%s defaults to %s, its config struct to %v", name, f.DefValue, want)
		}
	}
	// The cache sizes this binary has always defaulted to.
	for name, want := range map[string]string{"hoc": "2097152", "dc": "209715200"} {
		if f := fs.Lookup(name); f != nil && f.DefValue != want {
			t.Errorf("flag -%s defaults to %s, want %s", name, f.DefValue, want)
		}
	}
	// Removed flags stay removed. -gossip / -handoff: membership and handoff
	// are simply on when -peers is set. -mode / -objective: a node runs
	// darwin exactly when -model is set, over the objective the model file
	// records. The rest were flags no test, example, Makefile target or
	// documented command line ever set to a non-default value, so they are
	// their config struct's defaults now.
	for _, gone := range []string{
		"gossip", "handoff", "mode", "objective",
		"publish-every", "fsync-batch", "segment-bytes",
		"fetch-timeout", "backoff-max", "coalesce", "serve-stale",
		"peer-fanout", "peer-timeout",
		"max-inflight", "propagate-deadline", "min-fetch-budget", "hedge", "retry-budget",
		"brk-window", "brk-min-requests", "brk-probes",
	} {
		if fs.Lookup(gone) != nil {
			t.Errorf("flag -%s is back", gone)
		}
	}
}
