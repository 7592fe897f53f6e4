package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"darwin/internal/exp"
)

// spec is BENCHMARK.json as the smoke test needs it.
type spec struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestSmoke drives all four workloads and the traced pass at tiny scale and
// checks the shape of what comes out: every declared metric present and
// finite, outputs verified, the layer table summing to the client's latency,
// and nothing left running.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	goroutines := runtime.NumGoroutine()

	sc, err := scaleByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{sc: sc, seed: 11, outDir: t.TempDir()}
	res, err := b.runAll(workloads)
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(sp.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json declares %d", len(res.Workloads), len(sp.Workloads))
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(sp.PerLayer), len(perLayer))
	}
	for k, m := range sp.PerLayer {
		if d := perLayer[k]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", k, m, d)
		}
	}
	for i, wr := range res.Workloads {
		if wr.Name != sp.Workloads[i].Name || wr.Why != sp.Workloads[i].Why {
			t.Errorf("workload %d is %q (%s), BENCHMARK.json says %q (%s)", i, wr.Name, wr.Why, sp.Workloads[i].Name, sp.Workloads[i].Why)
		}
		if wr.Failed != 0 || len(wr.Violations) != 0 {
			t.Errorf("%s: %d failed, violations %v", wr.Name, wr.Failed, wr.Violations)
		}
		for _, m := range endToEnd {
			s, ok := wr.Metrics[m.name]
			if !ok || !finite(s.Median) {
				t.Errorf("%s: end-to-end metric %s missing or not finite: %+v", wr.Name, m.name, s)
			}
		}
		for _, m := range sp.EndToEnd {
			s, ok := wr.Metrics[m.Name]
			if !ok || s.Unit != m.Unit || s.Better != m.Better || s.Median <= 0 {
				t.Errorf("%s: %s declared as %s/%s and never 0, measured %+v", wr.Name, m.Name, m.Unit, m.Better, s)
			}
		}
		if len(wr.Layers) != len(perLayer) {
			t.Fatalf("%s: %d per-layer metrics measured, %d declared", wr.Name, len(wr.Layers), len(perLayer))
		}
		for k, row := range wr.Layers {
			if row.Name != perLayer[k].name || !finite(row.Value) || row.Value < 0 {
				t.Errorf("%s: per-layer metric %d is %+v, declared %s", wr.Name, k, row, perLayer[k].name)
			}
		}
		rc := wr.Reconcile
		if rc == nil || rc.TracedMeanUS <= 0 {
			t.Fatalf("%s: no reconciliation: %+v", wr.Name, rc)
		}
		if gap := rc.TracedMeanUS - rc.SumSelfUS - rc.ResidualUS; math.Abs(gap) > 1e-6 {
			t.Errorf("%s: Σ self %v + residual %v != client latency %v", wr.Name, rc.SumSelfUS, rc.ResidualUS, rc.TracedMeanUS)
		}
		if math.Abs(rc.ResidualUS) > 0.05*rc.TracedMeanUS {
			t.Errorf("%s: residual %v us is more than 5%% of the client's %v us: the layers do not account for the latency", wr.Name, rc.ResidualUS, rc.TracedMeanUS)
		}
		data, err := os.ReadFile(filepath.Join(b.outDir, "trace-"+wr.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans struct{ Spans [][]int64 }
		if err := json.Unmarshal(data, &spans); err != nil || len(spans.Spans) == 0 {
			t.Errorf("%s: span file unreadable or empty: %v", wr.Name, err)
		}
	}
	if sim := res.Workloads[len(res.Workloads)-1]; sim.Metrics["ohr"].Q1 != sim.Metrics["ohr"].Q3 {
		t.Errorf("sim-shift ohr is not identical across repetitions: %v", sim.Metrics["ohr"].Values)
	}

	// Every server, client and journal of every topology must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before, %d after: a topology did not shut down", goroutines, n)
	}
	if left, _ := filepath.Glob(filepath.Join(b.outDir, "tmp-*")); len(left) != 0 {
		t.Errorf("journal scratch directories left behind: %v", left)
	}
}

// TestWrappersKeepTheDeployedPlane pins the one way the span wrappers could
// silently change what is measured: a decider that stops advertising
// Concurrent is wrapped by the proxy in its global-mutex adapter.
func TestWrappersKeepTheDeployedPlane(t *testing.T) {
	sc, _ := scaleByName("tiny")
	c, err := exp.BuildCorpus(sc.train, "ohr")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(16)
	eng, ctl, err := newEngine(c, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !(tracedEngine{inner: eng, t: tr}).Concurrent() || !ctl.Concurrent() {
		t.Error("the engine wrapper hides Concurrent from the controller")
	}
	if !(tracedDecider{inner: ctl, t: tr}).Concurrent() {
		t.Error("the decider wrapper hides Concurrent from the proxy")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([5,1,3,2,4,9,7,8,6,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{5, 1, 3, 2, 4, 9, 7, 8, 6, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
	if q1, med, q3 = quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}

// TestSelfTimesNest checks the span arithmetic on a hand-made request: a
// child's time leaves its parent's self time, and a span outliving the one it
// started in is cut at that one's end, so no interval is counted twice.
func TestSelfTimesNest(t *testing.T) {
	tr := newTracer(16)
	tr.add(lyLoadgen, 0, 100)
	tr.add(lyProxy, 10, 80)
	tr.add(lyOrigin, 20, 50)  // two overlapping fetches (a hedge): the second
	tr.add(lyOrigin, 40, 60)  // nests in the first and is cut at 50
	tr.add(lyDecider, 70, 90) // outlives the proxy span by 10
	tr.add(lyLoadgen, 200, 250)
	b := tr.analyze(lyLoadgen)
	if b.requests != 2 || b.latencyNS != 150 {
		t.Fatalf("requests %d latency %d", b.requests, b.latencyNS)
	}
	want := map[layer]int64{lyLoadgen: 30 + 50, lyProxy: 70 - 30 - 10, lyOrigin: 20 + 10, lyDecider: 10}
	var sum int64
	for l := layer(0); l < numLayers; l++ {
		if b.selfNS[l] != want[l] {
			t.Errorf("%s self %d, want %d", layerNames[l], b.selfNS[l], want[l])
		}
		sum += b.selfNS[l]
	}
	if sum != b.latencyNS || b.clippedNS != 20 {
		t.Errorf("Σ self %d, latency %d, clipped %d", sum, b.latencyNS, b.clippedNS)
	}
}

// TestCompareVerdicts drives -compare over hand-made result files.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reqPerS, q1, q3, failRatio float64) string {
		var r result
		r.Workloads = []*workloadResult{{Name: "edge-hot", Metrics: map[string]summary{
			"req_per_s":  {Median: reqPerS, Q1: q1, Q3: q3},
			"fail_ratio": {Median: failRatio, Q1: failRatio, Q3: failRatio},
		}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"end_to_end":[{"name":"req_per_s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base.json", 1000, 990, 1010, 0)
	for _, tc := range []struct {
		name string
		path string
		want int
	}{
		{"within the bound", write("held.json", 950, 940, 960, 0), 0},
		{"faster", write("faster.json", 1500, 1490, 1510, 0), 0},
		{"slower beyond the bound", write("slow.json", 850, 840, 860, 0), 1},
		{"slower but too noisy to tell", write("noisy.json", 850, 700, 1000, 0), 0},
		{"any failure at all", write("failing.json", 1000, 990, 1010, 0.001), 1},
	} {
		if got := compareFiles(specPath, base, tc.path); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}
