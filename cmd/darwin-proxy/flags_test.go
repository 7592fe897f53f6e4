package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"darwin/internal/breaker"
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

	res, ov, brk := server.DefaultResilience(), server.DefaultOverload(), breaker.Config{}.WithDefaults()
	peer, store := server.PeerConfig{}.WithDefaults(), diskcache.Config{}.WithDefaults()
	for name, want := range map[string]any{
		"retries":            res.MaxAttempts,
		"fetch-timeout":      res.FetchTimeout,
		"backoff":            res.BackoffBase,
		"backoff-max":        res.BackoffMax,
		"coalesce":           res.Coalesce,
		"serve-stale":        res.ServeStale,
		"max-inflight":       ov.MaxInFlight,
		"propagate-deadline": ov.PropagateDeadline,
		"min-fetch-budget":   ov.MinFetchBudget,
		"hedge":              ov.Hedge,
		"retry-budget":       ov.RetryBudget,
		"brk-window":         brk.Window,
		"brk-threshold":      brk.FailureThreshold,
		"brk-min-requests":   brk.MinRequests,
		"brk-open-for":       brk.OpenFor,
		"brk-probes":         brk.HalfOpenProbes,
		"peer-fanout":        peer.Fanout,
		"peer-timeout":       peer.FetchTimeout,
		"fsync":              store.Sync,
		"fsync-batch":        store.BatchEvery,
		"segment-bytes":      store.SegmentBytes,
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("flag -%s is not registered", name)
		} else if f.DefValue != fmt.Sprint(want) {
			t.Errorf("flag -%s defaults to %s, its config struct to %v", name, f.DefValue, want)
		}
	}
	for _, gone := range []string{"gossip", "handoff"} {
		if fs.Lookup(gone) != nil {
			t.Errorf("flag -%s is back: membership and handoff are simply on when -peers is set", gone)
		}
	}
}
