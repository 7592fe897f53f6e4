// Command benchmark is the repository's one repeatable benchmark: four
// workloads, the end-to-end metrics a client of the system sees, and a
// per-layer self-time table that sums to the client's latency. It builds
// every topology in this process from the public constructors, drives it with
// its own closed-loop load generator, checks the outputs, and prints every
// metric by name and unit. README.md in this directory describes the
// workloads, the metrics and how they should move together.
//
//	go run ./benchmark                         # all four workloads, result file, layer tables
//	go run ./benchmark -only edge-hot,sim-shift -seed 12
//	go run ./benchmark -compare a.json b.json  # deltas against the bounds in BENCHMARK.json
//	go run ./benchmark --workload edge-hot --seed 3 --seconds 16 --trace 0   # one machine-readable run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"darwin/internal/persist"
)

// e2eMetric is one end-to-end metric: what a user of the system would see.
type e2eMetric struct {
	name, unit, better string
	// gated metrics are the ones BENCHMARK.json bounds and a single-workload
	// run reports. Two are printed and stored but not gated: fail_ratio
	// should always be 0, which the gate cannot take a share of (it reads the
	// attempted and failed counts instead), and p99_us of two closed-loop
	// clients on shared cores spread 18–22% between runs of one commit on
	// this host, too close to the widest bound the gate allows; the traced
	// pass reports it as loadgen.p99_us.
	gated bool
	get   func(*rep) float64
}

// endToEnd lists the end-to-end metrics in print order. The names are cited
// by later issues; BENCHMARK.json carries the gated ones' regression bounds.
var endToEnd = []e2eMetric{
	{"req_per_s", "req/s", "higher", true, func(r *rep) float64 { return r.reqPerS }},
	{"p50_us", "us", "lower", true, func(r *rep) float64 { return r.p50us }},
	{"p99_us", "us", "lower", false, func(r *rep) float64 { return r.p99us }},
	{"ohr", "ratio", "higher", true, func(r *rep) float64 { return r.ohr }},
	{"fail_ratio", "ratio", "lower", false, func(r *rep) float64 { return ratio(float64(r.failed), float64(r.attempted)) }},
	{"setup_s", "s", "lower", true, func(r *rep) float64 { return r.setupS }},
}

// summary is one metric over a workload's repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// reconcile is how a workload's layer table ends: Σ self against the client's
// latency, with every gap stated.
type reconcile struct {
	SumSelfUS    float64 `json:"sum_self_us"`
	TracedMeanUS float64 `json:"client_mean_us_traced"`
	ResidualUS   float64 `json:"residual_us"`
	ClippedUS    float64 `json:"clipped_us"`
	BareMeanUS   float64 `json:"client_mean_us_bare"`
	DroppedSpans int64   `json:"dropped_spans"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Name        string             `json:"name"`
	Why         string             `json:"why"`
	Warmup      int                `json:"warmup_requests"`
	Requests    int                `json:"requests_per_repetition"`
	Repetitions int                `json:"repetitions"`
	Clients     int                `json:"clients"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Samples     int                `json:"latency_samples_per_repetition"`
	BeyondP99   int                `json:"samples_beyond_p99"`
	Metrics     map[string]summary `json:"metrics"`
	Layers      []layerRow         `json:"layers,omitempty"`
	Reconcile   *reconcile         `json:"reconcile,omitempty"`
	Violations  []string           `json:"violations,omitempty"`
}

// result is a result file: the environment and every workload run.
type result struct {
	Env struct {
		Commit     string `json:"commit"`
		GoVersion  string `json:"go_version"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Clients    int    `json:"clients"`
		Seed       int64  `json:"seed"`
		Scale      string `json:"scale"`
		Loop       string `json:"loop"`
		Network    string `json:"network"`
	} `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

const (
	loopNote    = "closed loop: each client sends its next request when the previous one completes, because the generator shares the host's cores with the system under test"
	networkNote = "loopback, zero injected latency: the numbers price the program, not a link"
)

func newResult(b *bench) *result {
	res := &result{}
	res.Env.Commit = commit()
	res.Env.GoVersion = runtime.Version()
	res.Env.NumCPU = runtime.NumCPU()
	res.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	res.Env.Clients = clients
	res.Env.Seed = b.seed
	res.Env.Scale = b.sc.name
	res.Env.Loop = loopNote
	res.Env.Network = networkNote
	return res
}

// commit names the code that was measured: the checked-out revision, marked
// dirty when the tree differs from it. Outside a git checkout (or without
// git) there is nothing to name.
func commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// summarize folds a workload's repetitions into its result section.
func (b *bench) summarize(w workload, reps []*rep) *workloadResult {
	warm, timed := b.sc.sizes(w)
	wr := &workloadResult{Name: w.name, Why: w.why, Warmup: warm, Requests: timed, Repetitions: len(reps), Clients: clients, Metrics: map[string]summary{}}
	if w.nodes == 0 {
		wr.Clients = 1 // one goroutine, no HTTP
	}
	for _, r := range reps {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		wr.Samples, wr.BeyondP99 = r.samples, r.beyond
		wr.Violations = append(wr.Violations, r.violations...)
	}
	for _, m := range endToEnd {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = m.get(r)
		}
		q1, med, q3 := quartiles(vs)
		wr.Metrics[m.name] = summary{Unit: m.unit, Better: m.better, Median: med, Q1: q1, Q3: q3, Values: vs}
	}
	if w.nodes == 0 {
		if s := wr.Metrics["ohr"]; s.Q1 != s.Q3 {
			wr.Violations = append(wr.Violations, fmt.Sprintf("sim-shift: ohr differs across repetitions (%v): not deterministic per seed", s.Values))
		}
	}
	return wr
}

func (wr *workloadResult) attach(lt *layerTable) {
	wr.Layers = lt.rows()
	wr.Reconcile = &reconcile{
		SumSelfUS: lt.sumSelfUS, TracedMeanUS: lt.tracedMeanUS, ResidualUS: lt.residualUS,
		ClippedUS: lt.clippedUS, BareMeanUS: lt.bareMeanUS, DroppedSpans: lt.droppedSpans,
	}
	wr.Attempted += lt.attempted
	wr.Failed += lt.failed
	wr.Violations = append(wr.Violations, lt.violations...)
}

func (wr *workloadResult) printEndToEnd() {
	fmt.Printf("\n== %s: %d repetitions x %d requests (+%d warm-up), %d closed-loop client(s) ==\n", wr.Name, wr.Repetitions, wr.Requests, wr.Warmup, wr.Clients)
	fmt.Printf("  %-12s %-6s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, m := range endToEnd {
		s, note := wr.Metrics[m.name], ""
		if !m.gated {
			note = "  (not gated)"
		}
		fmt.Printf("  %-12s %-6s %14.4f %14.4f %14.4f %7.1f%%%s\n", m.name, s.Unit, s.Median, s.Q1, s.Q3, 100*spread(s.Q1, s.Median, s.Q3), note)
	}
	fmt.Printf("  p50_us and p99_us rest on %d latency samples per repetition, %d of them beyond p99; failed %d of %d attempted\n",
		wr.Samples, wr.BeyondP99, wr.Failed, wr.Attempted)
}

func (wr *workloadResult) printLayers() {
	fmt.Printf("  -- %s per layer (self_us: mean per request, one client, traced pass; counts: %d clients) --\n", wr.Name, clients)
	for _, row := range wr.Layers {
		fmt.Printf("  %-26s %14.4f %s\n", row.Name, row.Value, row.Unit)
	}
	rc := wr.Reconcile
	fmt.Printf("  %-26s %14.4f us\n", "Σ self_us", rc.SumSelfUS)
	fmt.Printf("  %-26s %14.4f us   residual %+.4f us (cut from spans that outlived their parent: %.4f us; spans dropped: %d)\n",
		"client mean_us (traced)", rc.TracedMeanUS, rc.ResidualUS, rc.ClippedUS, rc.DroppedSpans)
	fmt.Printf("  %-26s %14.4f us   residual %+.4f us (what the wrappers cost)\n", "client mean_us (bare)", rc.BareMeanUS, rc.BareMeanUS-rc.SumSelfUS)
	if s, ok := wr.Metrics["p50_us"]; ok {
		fmt.Printf("  %-26s %14.4f us   residual %+.4f us (median not mean, first byte not last, %d clients not one)\n",
			"client p50_us (timed)", s.Median, s.Median-rc.SumSelfUS, clients)
	}
}

func (wr *workloadResult) ok() bool { return len(wr.Violations) == 0 && wr.Failed == 0 }

// runAll is the default mode: every selected workload, repetitions
// interleaved round-robin because host noise drifts over minutes and
// back-to-back repetitions would all sample one window of it, then the
// traced pass.
func (b *bench) runAll(selected []workload) (*result, error) {
	res := newResult(b)
	reps := make([][]*rep, len(selected))
	for i := 0; i < b.sc.reps; i++ {
		for k, w := range selected {
			r, err := b.runRep(w)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			fmt.Fprintf(os.Stderr, "%s repetition %d/%d: %.0f req/s\n", w.name, i+1, b.sc.reps, r.reqPerS)
			reps[k] = append(reps[k], r)
		}
	}
	for k, w := range selected {
		wr := b.summarize(w, reps[k])
		lt, err := b.tracedPass(w)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
		}
		wr.attach(lt)
		wr.printEndToEnd()
		wr.printLayers()
		res.Workloads = append(res.Workloads, wr)
	}
	return res, nil
}

// minReps is the fewest repetitions a single-workload run makes, whatever
// its time budget, so that its medians (set-up time above all) are medians.
const minReps = 3

// runOne is the machine-readable mode: one workload, repeated until
// `seconds` of timed work has accumulated, reporting each metric's median.
// The last line of output is one JSON object.
func (b *bench) runOne(w workload, seconds float64, traced bool) (bool, error) {
	var wr *workloadResult
	metrics := map[string]map[string]any{}
	if traced {
		wr = &workloadResult{Name: w.name}
		var tables []*layerTable
		for timed := 0.0; timed < seconds || len(tables) == 0; {
			lt, err := b.tracedPass(w)
			if err != nil {
				return false, err
			}
			tables = append(tables, lt)
			timed += lt.wallS
			wr.attach(lt)
		}
		// Report each row's median over the passes.
		wr.Layers = nil
		for _, m := range perLayer {
			vs := make([]float64, len(tables))
			for i, lt := range tables {
				vs[i] = lt.values[m.name]
			}
			row := layerRow{Name: m.name, Value: median(vs), Unit: m.unit}
			wr.Layers = append(wr.Layers, row)
			metrics[m.name] = map[string]any{"value": row.Value, "unit": row.Unit}
		}
		wr.printLayers()
	} else {
		var reps []*rep
		for timed := 0.0; timed < seconds || len(reps) < minReps; {
			r, err := b.runRep(w)
			if err != nil {
				return false, err
			}
			reps = append(reps, r)
			timed += r.wallS
		}
		wr = b.summarize(w, reps)
		for _, m := range endToEnd {
			if m.gated {
				metrics[m.name] = map[string]any{"value": wr.Metrics[m.name].Median, "unit": m.unit}
			}
		}
		wr.printEndToEnd()
	}
	for _, v := range wr.Violations {
		fmt.Println("VIOLATION:", v)
	}
	line, err := json.Marshal(map[string]any{"correct": wr.ok(), "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return wr.ok(), nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		only      = fs.String("only", "", "comma-separated workloads to run (default all): "+strings.Join(workloadNames(), ","))
		seed      = fs.Int64("seed", 11, "seed of the generated traces; the program under test only ever sees the requests")
		scaleName = fs.String("scale", "full", "full, or tiny (the smoke test's size)")
		out       = fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json, the span files and journal scratch space")
		compare   = fs.Bool("compare", false, "compare two result files given as arguments, against the bounds in -spec")
		spec      = fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the regression bounds (for -compare)")
		one       = fs.String("workload", "", "run this one workload and print one JSON object as the last line")
		seconds   = fs.Float64("seconds", 16, "with -workload: repeat until this much timed work has accumulated")
		traceOn   = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1))
	}
	sc, err := scaleByName(*scaleName)
	if err != nil {
		return fatal(err)
	}
	// The host has two cores, shared by the generator, the proxies and the
	// origin; pinning the scheduler to two keeps a run comparable across
	// hosts that happen to expose more.
	runtime.GOMAXPROCS(2)
	b := &bench{sc: sc, seed: *seed, outDir: *out}

	if *one != "" {
		w, err := workloadByName(*one)
		if err != nil {
			return fatal(err)
		}
		ok, err := b.runOne(w, *seconds, *traceOn != 0)
		if err != nil {
			return fatal(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	selected := workloads
	if *only != "" {
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			w, err := workloadByName(strings.TrimSpace(name))
			if err != nil {
				return fatal(err)
			}
			selected = append(selected, w)
		}
	}
	fmt.Printf("darwin benchmark: seed %d, scale %s, GOMAXPROCS %d of %d CPUs, %d clients\n%s\n%s\n",
		b.seed, sc.name, runtime.GOMAXPROCS(0), runtime.NumCPU(), clients, loopNote, networkNote)
	res, err := b.runAll(selected)
	if err != nil {
		return fatal(err)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fatal(err)
	}
	path := filepath.Join(b.outDir, "result.json")
	if err := persist.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		return fatal(err)
	}
	fmt.Printf("\nwrote %s and %s\n", path, filepath.Join(b.outDir, "trace-<workload>.json"))
	code := 0
	for _, wr := range res.Workloads {
		for _, v := range wr.Violations {
			fmt.Println("VIOLATION:", v)
		}
		if !wr.ok() {
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}
