package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"darwin/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/small.golden from this run's reports")

// goldenIDs are the experiments whose reports are pure functions of the
// scale and seed: every simulation report, and fig4c, whose deployed nodes
// are replayed serially at trace time on the rig clock. The wall-clock
// measurements (fig7, chaos, overload, overhead) are not, and the replays
// cluster, flap and crash are checked in internal/exp.
var goldenIDs = []string{
	"table1", "fig2", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c", "fig10",
	"fig6a", "fig6b", "table2", "fig11", "ablations", "future",
}

// TestSmallReportsGolden pins every goldenIDs report at exp.Small() to
// testdata/small.golden, byte for byte, so a change that moves a decision
// anywhere in training, the controller or the simulator shows as a golden
// diff. The runner's "done in" lines are wall clock and are not written.
// -update rewrites the file.
func TestSmallReportsGolden(t *testing.T) {
	sel, err := selectExperiments(strings.Join(goldenIDs, ","))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	r := newSession(exp.Small())
	for _, e := range sel {
		if err := e.print(&got, r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "small.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./cmd/experiments -update)", err)
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Fatalf("reports differ from %s at line %d (regenerate with -update if intended):\n got: %q\nwant: %q",
				path, i+1, line(g, i), line(w, i))
		}
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return fmt.Sprintf("<end of output, %d lines>", len(lines))
}
