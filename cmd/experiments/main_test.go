package main

import (
	"strings"
	"testing"
)

// TestExperimentIDs holds the -only contract: ids are unique, every id
// selects exactly itself, empty selects the whole table, and an id that
// names nothing is an error listing the valid ids (it used to run nothing
// and exit 0).
func TestExperimentIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		sel, err := selectExperiments(" " + e.id + " ,")
		if err != nil || len(sel) != 1 || sel[0].id != e.id {
			t.Errorf("-only %s selected %v, err %v", e.id, sel, err)
		}
	}
	if all, err := selectExperiments(""); err != nil || len(all) != len(experiments) {
		t.Errorf("empty -only selected %d of %d, err %v", len(all), len(experiments), err)
	}
	_, err := selectExperiments("fig2,figg2")
	if err == nil {
		t.Fatal("unknown id figg2 accepted")
	}
	for _, want := range []string{`"figg2"`, "fig10", "future"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}
