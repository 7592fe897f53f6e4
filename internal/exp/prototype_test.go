package exp

import (
	"strings"
	"testing"
	"time"

	"darwin/internal/cache"
	"darwin/internal/core"
	"darwin/internal/server"
	"darwin/internal/trace"
)

func fastPrototype() PrototypeConfig {
	return PrototypeConfig{
		OriginLatency:    500 * time.Microsecond,
		DCLatency:        100 * time.Microsecond,
		Concurrency:      4,
		ConcurrencySweep: []int{1, 8},
		TraceLen:         1200,
	}
}

func TestPrototypeTraceConcatenation(t *testing.T) {
	c := tinyCorpus(t)
	tr, err := PrototypeTrace(c, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2000 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Requests[i].Time < tr.Requests[i-1].Time {
			t.Fatal("timestamps not monotone across segments")
		}
	}
}

// simulate plays tr through Controller.Serve over the engine node.New builds
// for a learner node — cache.NewSharded(cfg, 1), Warmup = the model's
// feature window — and returns the controller and each request's result.
func simulate(t *testing.T, c *Corpus, tr *trace.Trace) (*core.Controller, []cache.Result) {
	t.Helper()
	eng, err := cache.NewSharded(cache.Config{HOCBytes: c.Scale.Eval.HOCBytes, DCBytes: c.Scale.Eval.DCBytes}, 1)
	if err != nil {
		t.Fatal(err)
	}
	oc := c.Scale.Online
	oc.Warmup = c.Model.FeatureWindow
	ctrl, err := core.NewController(c.Model, eng, oc)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]cache.Result, tr.Len())
	for i, req := range tr.Requests {
		res[i] = ctrl.Serve(req)
	}
	return ctrl, res
}

// TestDeployedNodeMatchesSimulator is the HTTP proxy held to the serial
// spec: a prototype trace replayed serially through a deployed Darwin node,
// each request at its trace time on the rig clock, answers every request as
// Controller.Serve does (X-Cache), and ends with the controller's metrics.
func TestDeployedNodeMatchesSimulator(t *testing.T) {
	c := tinyCorpus(t)
	tr, err := PrototypeTrace(c, 6000)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, want := simulate(t, c, tr)

	r := newRig(&server.Origin{})
	defer r.close()
	a := protoArms(c)[0]
	n, err := r.startNode(a.on(r.nodeConfig(a.expert, c.Scale.Eval), c))
	if err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for i, req := range tr.Requests {
		s, err := r.getAt(n.url, req)
		if err != nil {
			t.Fatal(err)
		}
		got := cache.Miss
		switch {
		case s.hoc:
			got = cache.HOCHit
		case s.dc:
			got = cache.DCHit
		}
		if s.status != 200 || got != want[i] {
			if mismatches == 0 {
				t.Errorf("request %d (%+v): status %d, X-Cache %v; simulator %v", i, req, s.status, got, want[i])
			}
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Errorf("%d of %d requests answered differently from the simulator", mismatches, tr.Len())
	}
	if got, want := n.Proxy.Metrics(), ctrl.Metrics(); got != want {
		t.Errorf("node metrics %+v\nsimulator    %+v", got, want)
	}
}

func TestFig4cPrototype(t *testing.T) {
	c := tinyCorpus(t)
	tr, err := PrototypeTrace(c, fastPrototype().TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fig4cPrototypeOHR(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 { // darwin + three static picks
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[3] != "0" {
			t.Fatalf("errors in prototype run: %v", row)
		}
	}
	// The darwin row is the simulated controller's OHR on the same trace.
	ctrl, _ := simulate(t, c, tr)
	if row, want := rep.Rows[0], f4(ctrl.Metrics().OHR()); row[0] != "darwin" || row[1] != want {
		t.Fatalf("first row = %v, want darwin at the simulator's OHR %s", row, want)
	}
}

func TestFig7aLatency(t *testing.T) {
	c := tinyCorpus(t)
	pc := fastPrototype()
	tr, err := PrototypeTrace(c, pc.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fig7aLatency(c, pc, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if !strings.Contains(rep.Title, "latency") {
		t.Fatal("title wrong")
	}
}

func TestFig7bThroughput(t *testing.T) {
	c := tinyCorpus(t)
	pc := fastPrototype()
	tr, err := PrototypeTrace(c, pc.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fig7bThroughput(c, pc, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(pc.ConcurrencySweep) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestOverheadReport(t *testing.T) {
	c := tinyCorpus(t)
	rep, err := OverheadReport(c, c.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 8 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestAblationSideInfoRuns(t *testing.T) {
	rep, err := AblationSideInfo(tinyCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}
