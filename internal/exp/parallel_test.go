package exp

import (
	"reflect"
	"testing"

	"darwin/internal/par"
)

// withParallelism runs f with the engine's default width pinned to p,
// restoring the previous default afterwards.
func withParallelism(p int, f func()) {
	prev := par.SetDefault(p)
	defer par.SetDefault(prev)
	f()
}

// TestFig2SuiteSerialParallelIdentical is the golden equivalence check for
// the Figure 2 driver: the rendered panels must match byte for byte whether
// the sweep runs inline or fans out over the worker pool.
func TestFig2SuiteSerialParallelIdentical(t *testing.T) {
	sc := Small()
	sc.OnlineTraceLen = 10_000 // keep the golden run fast; shape is unchanged

	render := func(p int) string {
		var out string
		withParallelism(p, func() {
			reps, err := Fig2Suite(sc)
			if err != nil {
				t.Fatalf("parallelism %d: %v", p, err)
			}
			for _, r := range reps {
				out += r.String() + "\n"
			}
		})
		return out
	}

	serial := render(1)
	for _, p := range []int{2, 8} {
		if got := render(p); got != serial {
			t.Fatalf("parallelism %d: Fig2Suite output diverges from serial:\n got:\n%s\nwant:\n%s", p, got, serial)
		}
	}
}

// TestFig4CompareSerialParallelIdentical verifies the heaviest driver — the
// Darwin-vs-baselines ensemble comparison — produces identical results and
// epoch diagnostics on the serial and parallel paths. Each width runs on its
// own fresh corpus over the same traces, dataset and model, so both compute
// the held-out grid, the ensemble and the comparison from scratch.
func TestFig4CompareSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full ensemble comparison in -short mode")
	}
	base, err := BuildCorpus(Small(), "ohr")
	if err != nil {
		t.Fatal(err)
	}

	run := func(p int) *compareOut {
		var out *compareOut
		withParallelism(p, func() {
			var err error
			out, err = fresh(base).compare()
			if err != nil {
				t.Fatalf("parallelism %d: %v", p, err)
			}
		})
		return out
	}

	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial.results, parallel.results) {
		t.Fatalf("comparison results diverge:\n got %+v\nwant %+v", parallel.results, serial.results)
	}
	if !reflect.DeepEqual(serial.diags, parallel.diags) {
		t.Fatalf("epoch diagnostics diverge:\n got %+v\nwant %+v", parallel.diags, serial.diags)
	}
}
