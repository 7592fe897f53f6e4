package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"darwin/internal/server"
)

// TestFlagsDocumentedAndDefaultsDeclaredOnce is the guard against flag
// drift: every registered flag is named in README.md, and every flag bound
// to FrontConfig shows FrontConfig's own default — the literal lives in the
// package that owns the setting, never a second time here.
func TestFlagsDocumentedAndDefaultsDeclaredOnce(t *testing.T) {
	fs := flag.NewFlagSet("darwin-front", flag.ContinueOnError)
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

	c := server.FrontConfig{}.WithDefaults()
	for name, want := range map[string]any{
		"rebalance-every": c.RebalanceEvery,
		"probe-every":     c.ProbeEvery,
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("flag -%s is not registered", name)
		} else if f.DefValue != fmt.Sprint(want) {
			t.Errorf("flag -%s defaults to %s, FrontConfig to %v", name, f.DefValue, want)
		}
	}
	// Removed flags stay removed. -gossip: the membership view is the front's
	// only health source. The rest were flags no test, example, Makefile
	// target or documented command line ever set, so they are FrontConfig's
	// defaults (and main's drain constant) now.
	for _, gone := range []string{
		"gossip", "vnodes", "load-factor", "attempts",
		"rep-top-k", "rep-max-factor", "rep-hot-share", "drain",
	} {
		if fs.Lookup(gone) != nil {
			t.Errorf("flag -%s is back", gone)
		}
	}
}
