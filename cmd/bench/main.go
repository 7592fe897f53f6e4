// Command bench is the reproducible performance harness for the simulator
// and the parallel experiment engine. It times the request-serving hot path
// (per eviction policy, plus the feature extractor, frequency trackers and
// Bloom filters) with testing.Benchmark, then measures wall-clock for the
// embarrassingly parallel sweeps (expert-grid evaluation, the Figure 2 panel
// suite) serial vs parallel, asserting along the way that both paths produce
// identical output, and finally measures end-to-end HTTP proxy throughput at
// concurrency 64 with the global-lock (shards=1) vs sharded cache engine.
// Results are written as machine-readable JSON so runs can be diffed across
// commits; see the committed BENCH_*.json baselines.
//
// The proxy matrix section sweeps GOMAXPROCS × shards × concurrency so the
// sharding claim is honest about its scaling axis: shards>1 only pays when
// GOMAXPROCS>1, and the matrix records both sides rather than a single cherry-
// picked point.
//
// Usage:
//
//	bench                      # writes BENCH_<today>.json
//	bench -out results.json -parallelism 8
//	bench -only proxy,matrix -cpuprofile cpu.pprof -out -
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"context"
	"net/http/httptest"

	"darwin/internal/baselines"
	"darwin/internal/bloom"
	"darwin/internal/cache"
	"darwin/internal/diskcache"
	"darwin/internal/exp"
	"darwin/internal/features"
	"darwin/internal/gossip"
	"darwin/internal/par"
	"darwin/internal/persist"
	"darwin/internal/server"
	"darwin/internal/trace"
)

// Micro is one testing.Benchmark result over a single-threaded hot-path op.
type Micro struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

// Sweep is one serial-vs-parallel wall-clock comparison of an experiment
// driver, with an output-equivalence check.
type Sweep struct {
	Name            string  `json:"name"`
	Tasks           int     `json:"tasks"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	OutputIdentical bool    `json:"output_identical"`
}

// ProxyBench is one HTTP-proxy throughput measurement: a closed-loop load
// run at fixed concurrency against a static-expert proxy whose cache engine
// uses the given shard count (1 = the single-lock data plane).
type ProxyBench struct {
	Name string `json:"name"`
	// GOMAXPROCS is the scheduler parallelism the arm ran under (matrix arms
	// vary it; plain arms inherit the process default and omit the field).
	GOMAXPROCS  int `json:"gomaxprocs,omitempty"`
	Shards      int `json:"shards"`
	Concurrency int `json:"concurrency"`
	// Runs is the number of repetitions behind the reported numbers (the best
	// run by throughput is kept: on a shared host, neighbor interference only
	// subtracts, so the max estimates capability with the least bias).
	Runs int `json:"runs,omitempty"`
	Requests       int     `json:"requests"`
	Errors         int     `json:"errors"`
	ThroughputMbps float64 `json:"throughput_mbps"`
	ReqPerSec      float64 `json:"req_per_sec"`
	P99Millis      float64 `json:"p99_ms"`
	// OnTimeRate and Shed are reported by the overload arms: the fraction of
	// issued requests completing within the client deadline, and the count of
	// deliberate 503 sheds. A healthy origin should show OnTimeRate ≈ 1 and
	// Shed ≈ 0 — the protection layer's tax is read off the throughput delta.
	OnTimeRate float64 `json:"on_time_rate,omitempty"`
	Shed       int     `json:"shed,omitempty"`
	// Nodes, OHR, and PeerFills are reported by the cluster arms: backend
	// count behind the front tier, the cluster-wide hit rate (local hits plus
	// peer fills over requests), and how many misses a ring sibling absorbed.
	Nodes     int     `json:"nodes,omitempty"`
	OHR       float64 `json:"ohr,omitempty"`
	PeerFills int     `json:"peer_fills,omitempty"`
}

// Durability records the cost of the crash-safety layer: journal append
// latency under each fsync policy, and how fast a journal replays on restart.
type Durability struct {
	// JournalPut holds one Micro per fsync policy (off, batch, always).
	JournalPut []Micro `json:"journal_put"`
	// Recovery measures diskcache.Open over a pre-written journal.
	RecoveryRecords       int     `json:"recovery_records"`
	RecoverySeconds       float64 `json:"recovery_seconds"`
	RecoveryRecordsPerSec float64 `json:"recovery_records_per_sec"`
}

// Report is the full benchmark record.
type Report struct {
	Date        string       `json:"date"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	NumCPU      int          `json:"num_cpu"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Parallelism int          `json:"parallelism"`
	Micro       []Micro      `json:"micro"`
	Durability  Durability   `json:"durability"`
	Sweeps      []Sweep      `json:"sweeps"`
	Proxy       []ProxyBench `json:"proxy"`
}

func main() {
	var (
		out         = flag.String("out", "", "output JSON path; empty selects BENCH_<date>.json, \"-\" skips the JSON write")
		parallelism = flag.Int("parallelism", runtime.NumCPU(), "worker count for the parallel side of sweep comparisons")
		only        = flag.String("only", "", "comma-separated sections to run: micro,gossip,durability,sweeps,proxy,matrix,overload,cluster (empty = all)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile covering the selected sections to this path")
		memProfile  = flag.String("memprofile", "", "write a heap profile taken after the selected sections to this path")
	)
	flag.Parse()

	sections := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sections[s] = true
		}
	}
	want := func(name string) bool { return len(sections) == 0 || sections[name] }

	date := time.Now().Format("2006-01-02")
	path := *out
	if path == "" {
		path = "BENCH_" + date + ".json"
	}

	if *cpuProfile != "" {
		//lint:ignore persistio pprof streams into a live handle; a torn profile from a crashed bench is diagnostic debris, not durable state
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep := Report{
		Date:        date,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: *parallelism,
	}

	tr, err := exp.SyntheticMix(50, 100_000, 7)
	if err != nil {
		fatal(err)
	}

	if want("micro") {
		fmt.Println("== micro benchmarks (single-threaded hot path) ==")
		for _, name := range []string{"lru", "fifo", "lfu", "s4lru", "gdsf"} {
			rep.Micro = append(rep.Micro, micro("hierarchy-serve/"+name, benchServe(tr, name)))
		}
		rep.Micro = append(rep.Micro,
			micro("features-observe", benchObserve(tr)),
			micro("tracker-exact", benchTracker(tr, cache.NewExactTracker())),
			micro("tracker-approx", benchTracker(tr, cache.NewApproxTracker(1<<16))),
			micro("bloom-test-and-add-u64", benchBloom(tr)),
		)
		for _, m := range rep.Micro {
			fmt.Printf("  %-28s %10.1f ns/op  %4d allocs/op  %8.0f ops/s\n",
				m.Name, m.NsPerOp, m.AllocsPerOp, m.OpsPerSec)
		}
	}

	if want("gossip") {
		fmt.Println("\n== gossip (membership digest wire costs, per probe) ==")
		gm := []Micro{
			micro("gossip-digest-append", benchDigestAppend(16)),
			micro("gossip-digest-decode", benchDigestDecode(16)),
			micro("gossip-digest-merge", benchDigestMerge(16)),
		}
		rep.Micro = append(rep.Micro, gm...)
		for _, m := range gm {
			fmt.Printf("  %-28s %10.1f ns/op  %4d allocs/op  %8.0f ops/s\n",
				m.Name, m.NsPerOp, m.AllocsPerOp, m.OpsPerSec)
		}
	}

	if want("durability") {
		fmt.Println("\n== durability (DC journal append + crash recovery) ==")
		dur, err := benchDurability()
		if err != nil {
			fatal(err)
		}
		rep.Durability = dur
		for _, m := range dur.JournalPut {
			fmt.Printf("  %-28s %10.1f ns/op  %4d allocs/op  %8.0f ops/s\n",
				m.Name, m.NsPerOp, m.AllocsPerOp, m.OpsPerSec)
		}
		fmt.Printf("  %-28s %d records in %.3fs  (%.0f records/s)\n",
			"journal-recovery", dur.RecoveryRecords, dur.RecoverySeconds, dur.RecoveryRecordsPerSec)
	}

	if want("sweeps") {
		fmt.Printf("\n== sweeps (serial vs %d workers) ==\n", *parallelism)
		sw, err := sweepEvaluateAll(tr, *parallelism)
		if err != nil {
			fatal(err)
		}
		rep.Sweeps = append(rep.Sweeps, sw)
		sw, err = sweepFig2(*parallelism)
		if err != nil {
			fatal(err)
		}
		rep.Sweeps = append(rep.Sweeps, sw)
		for _, s := range rep.Sweeps {
			fmt.Printf("  %-20s %2d tasks  serial %6.2fs  parallel %6.2fs  speedup %.2fx  identical=%v\n",
				s.Name, s.Tasks, s.SerialSeconds, s.ParallelSeconds, s.Speedup, s.OutputIdentical)
			if !s.OutputIdentical {
				fatal(fmt.Errorf("sweep %s: parallel output differs from serial", s.Name))
			}
		}
	}

	// The sharded arm uses NumCPU shards but never fewer than 4, so the
	// lock-striping comparison stays meaningful on small containers.
	shardArm := runtime.NumCPU()
	if shardArm < 4 {
		shardArm = 4
	}
	// The three throughput sections (proxy, matrix, overload) pool their arms
	// into ONE bestOf call: repetitions are interleaved across every enabled
	// arm, so each arm's proxyRuns samples span the combined sections' wall
	// time (minutes) instead of that arm's own ~10 s slice. On a host whose
	// background load oscillates on minute scales, that coverage is the
	// difference between best-of-N finding an interference-free window and
	// best-of-N re-sampling the same bad one.
	printStd := func(pb ProxyBench) {
		fmt.Printf("  %-36s %8.1f Mbps  %8.0f req/s  p99 %6.2f ms  errors %d\n",
			pb.Name, pb.ThroughputMbps, pb.ReqPerSec, pb.P99Millis, pb.Errors)
	}
	printOverload := func(pb ProxyBench) {
		fmt.Printf("  %-36s %8.1f Mbps  %8.0f req/s  p99 %6.2f ms  on-time %.4f  shed %d\n",
			pb.Name, pb.ThroughputMbps, pb.ReqPerSec, pb.P99Millis, pb.OnTimeRate, pb.Shed)
	}
	type proxySection struct {
		header string
		print  func(ProxyBench)
		arms   []func() (ProxyBench, error)
	}
	var tputSections []proxySection
	if want("proxy") {
		var arms []func() (ProxyBench, error)
		for _, shards := range []int{1, shardArm} {
			arms = append(arms, func() (ProxyBench, error) { return benchProxyOnce(shards, 64) })
		}
		tputSections = append(tputSections, proxySection{
			header: "\n== proxy throughput (concurrency 64, global lock vs sharded) ==",
			print:  printStd,
			arms:   arms,
		})
	}
	if want("matrix") {
		tputSections = append(tputSections, proxySection{
			header: "\n== proxy matrix (GOMAXPROCS × shards × concurrency) ==",
			print:  printStd,
			arms:   benchProxyMatrixArms(),
		})
	}
	if want("overload") {
		var arms []func() (ProxyBench, error)
		for _, protected := range []bool{false, true} {
			arms = append(arms, func() (ProxyBench, error) { return benchOverloadProxyOnce(shardArm, 64, protected) })
		}
		tputSections = append(tputSections, proxySection{
			header: "\n== overload layer overhead (healthy origin, deadline-carrying clients) ==",
			print:  printOverload,
			arms:   arms,
		})
	}
	if want("cluster") {
		var arms []func() (ProxyBench, error)
		for _, nodes := range []int{1, 3} {
			arms = append(arms, func() (ProxyBench, error) { return benchClusterOnce(nodes, shardArm, 64) })
		}
		tputSections = append(tputSections, proxySection{
			header: "\n== cluster front tier (1-node vs 3-node: ring routing + peer fill) ==",
			print: func(pb ProxyBench) {
				fmt.Printf("  %-36s %8.1f Mbps  %8.0f req/s  p99 %6.2f ms  ohr %.4f  peerfills %d\n",
					pb.Name, pb.ThroughputMbps, pb.ReqPerSec, pb.P99Millis, pb.OHR, pb.PeerFills)
			},
			arms: arms,
		})
	}
	if len(tputSections) > 0 {
		var all []func() (ProxyBench, error)
		for _, s := range tputSections {
			all = append(all, s.arms...)
		}
		// Drop the sweep sections' heap before timing the proxy: a pending GC
		// of simulation garbage shouldn't land in a throughput sample.
		runtime.GC()
		results, err := bestOf(all)
		if err != nil {
			fatal(err)
		}
		idx := 0
		for _, s := range tputSections {
			fmt.Println(s.header)
			for range s.arms {
				pb := results[idx]
				idx++
				rep.Proxy = append(rep.Proxy, pb)
				s.print(pb)
			}
		}
	}

	if *memProfile != "" {
		//lint:ignore persistio pprof writes into a live handle; a torn profile from a crashed bench is diagnostic debris, not durable state
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if path == "-" {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := persist.WriteFileAtomic(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s\n", path)
}

func micro(name string, r testing.BenchmarkResult) Micro {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return Micro{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		OpsPerSec:   1e9 / ns,
	}
}

// benchServe times Hierarchy.Serve with the given eviction policy at both
// levels, replaying a pre-generated trace so request generation stays out of
// the measured loop.
func benchServe(tr *trace.Trace, eviction string) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		h, err := cache.New(cache.Config{
			HOCBytes:    256 << 10,
			DCBytes:     32 << 20,
			HOCEviction: eviction,
			DCEviction:  eviction,
			Expert:      cache.Expert{Freq: 2, MaxSize: 64 << 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		reqs := tr.Requests
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Serve(reqs[i%len(reqs)])
		}
	})
}

func benchObserve(tr *trace.Trace) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		ex, err := features.NewExtractor(features.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		reqs := tr.Requests
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.Observe(reqs[i%len(reqs)])
		}
	})
}

func benchTracker(tr *trace.Trace, t cache.FrequencyTracker) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		reqs := tr.Requests
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Observe(reqs[i%len(reqs)].ID, int64(i))
		}
	})
}

func benchBloom(tr *trace.Trace) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		f := bloom.New(1<<20, 0.01)
		reqs := tr.Requests
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.TestAndAddU64(reqs[i%len(reqs)].ID)
		}
	})
}

// benchEntries builds a nodes-wide digest entry set with live sequences.
func benchEntries(nodes int) []gossip.Entry {
	entries := make([]gossip.Entry, nodes)
	for i := range entries {
		entries[i] = gossip.Entry{Node: uint16(i), Seq: uint64(1000 + i), Status: uint8(gossip.Alive)}
	}
	return entries
}

// benchDigestAppend times encoding one digest — the cost added to every peer
// probe and /gossip answer. Must be allocation-free on a warm buffer.
func benchDigestAppend(nodes int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		entries := benchEntries(nodes)
		buf := gossip.AppendDigest(nil, 0, entries)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = gossip.AppendDigest(buf[:0], 0, entries)
		}
	})
}

// benchDigestDecode times parsing one digest off the wire — the receive-side
// cost on the probe path. Must be allocation-free on a warm entry slice.
func benchDigestDecode(nodes int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		wire := gossip.AppendDigest(nil, 0, benchEntries(nodes))
		dst := make([]gossip.Entry, 0, nodes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := gossip.DecodeDigest(wire, dst[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchDigestMerge times folding a decoded digest into a membership — the
// detector bookkeeping per probe (sequence advance + phi sample push).
func benchDigestMerge(nodes int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		now := time.Unix(0, 0)
		memb, err := gossip.New(gossip.Config{
			Nodes: nodes,
			Self:  -1,
			Clock: func() time.Time { return now },
		})
		if err != nil {
			b.Fatal(err)
		}
		entries := benchEntries(nodes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range entries {
				entries[j].Seq++
			}
			now = now.Add(250 * time.Millisecond)
			memb.Merge(0, entries)
		}
	})
}

// benchDurability times the DC journal under each fsync policy and measures
// replay speed on reopen — the two numbers that price crash safety: what a
// durable admission costs on the hot path, and how long a restart spends
// rebuilding the index.
func benchDurability() (Durability, error) {
	var d Durability
	for _, pol := range []diskcache.SyncPolicy{diskcache.SyncOff, diskcache.SyncBatch, diskcache.SyncAlways} {
		pol := pol
		r := testing.Benchmark(func(b *testing.B) {
			dir, err := os.MkdirTemp("", "bench-journal-*")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := diskcache.Open(diskcache.Config{Dir: dir, Sync: pol})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Put(uint64(i), 4096)
			}
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		})
		d.JournalPut = append(d.JournalPut, micro("journal-put/fsync="+pol.String(), r))
	}

	// Recovery: replay a 200k-record journal (puts with a delete tail) and
	// time the index rebuild that Open performs.
	const recRecords = 200_000
	dir, err := os.MkdirTemp("", "bench-recovery-*")
	if err != nil {
		return d, err
	}
	defer os.RemoveAll(dir)
	st, err := diskcache.Open(diskcache.Config{Dir: dir, Sync: diskcache.SyncOff})
	if err != nil {
		return d, err
	}
	for i := 0; i < recRecords*9/10; i++ {
		st.Put(uint64(i), 4096)
	}
	for i := 0; i < recRecords/10; i++ {
		st.Remove(uint64(i))
	}
	if err := st.Close(); err != nil {
		return d, err
	}
	start := time.Now()
	st2, err := diskcache.Open(diskcache.Config{Dir: dir, Sync: diskcache.SyncOff})
	if err != nil {
		return d, err
	}
	elapsed := time.Since(start)
	stats := st2.Stats()
	if err := st2.Close(); err != nil {
		return d, err
	}
	replayed := int(stats.RecoveredPuts + stats.RecoveredDeletes)
	d.RecoveryRecords = replayed
	d.RecoverySeconds = elapsed.Seconds()
	d.RecoveryRecordsPerSec = float64(replayed) / elapsed.Seconds()
	return d, nil
}

// sweepEvaluateAll times the expert-grid evaluation (the inner loop of
// Darwin's offline phase) serial vs parallel and verifies the metrics match
// exactly.
func sweepEvaluateAll(tr *trace.Trace, parallelism int) (Sweep, error) {
	sc := exp.Small()
	experts := sc.Experts
	cfg := sc.Eval

	start := time.Now()
	serial, err := cache.EvaluateAllParallel(tr, experts, cfg, 1)
	if err != nil {
		return Sweep{}, err
	}
	serialDur := time.Since(start)

	start = time.Now()
	parallel, err := cache.EvaluateAllParallel(tr, experts, cfg, parallelism)
	if err != nil {
		return Sweep{}, err
	}
	parallelDur := time.Since(start)

	identical := len(serial) == len(parallel)
	for i := 0; identical && i < len(serial); i++ {
		identical = serial[i] == parallel[i]
	}
	return Sweep{
		Name:            "evaluate-all-grid",
		Tasks:           len(experts),
		SerialSeconds:   serialDur.Seconds(),
		ParallelSeconds: parallelDur.Seconds(),
		Speedup:         serialDur.Seconds() / parallelDur.Seconds(),
		OutputIdentical: identical,
	}, nil
}

// sweepFig2 times the Figure 2 panel suite at benchmark scale serial vs
// parallel and verifies the rendered reports match byte for byte.
func sweepFig2(parallelism int) (Sweep, error) {
	run := func(p int) (string, time.Duration, error) {
		prev := par.SetDefault(p)
		defer par.SetDefault(prev)
		start := time.Now()
		reps, err := exp.Fig2Suite(exp.Small())
		if err != nil {
			return "", 0, err
		}
		var out string
		for _, r := range reps {
			out += r.String() + "\n"
		}
		return out, time.Since(start), nil
	}

	serialOut, serialDur, err := run(1)
	if err != nil {
		return Sweep{}, err
	}
	parallelOut, parallelDur, err := run(parallelism)
	if err != nil {
		return Sweep{}, err
	}
	return Sweep{
		Name:            "fig2-suite",
		Tasks:           5,
		SerialSeconds:   serialDur.Seconds(),
		ParallelSeconds: parallelDur.Seconds(),
		Speedup:         serialDur.Seconds() / parallelDur.Seconds(),
		OutputIdentical: serialOut == parallelOut,
	}, nil
}

// proxyRuns is the repetition count for proxy throughput arms; the best run
// is reported (see ProxyBench.Runs).
const proxyRuns = 5

// bestOf runs every arm once per pass, proxyRuns passes total, and reports
// each arm's best run by throughput. Interleaving the repetitions across
// arms — rather than running one arm's repetitions back to back — matters on
// a shared host whose background load oscillates over minutes: back-to-back
// runs land in a single ~10 s noise window, while interleaved runs spread
// one arm's samples across the whole section's wall time, so best-of-N can
// find an interference-free window for every arm. Interference only ever
// subtracts throughput, which is why the max (not the mean) is the
// least-biased capability estimate.
func bestOf(arms []func() (ProxyBench, error)) ([]ProxyBench, error) {
	best := make([]ProxyBench, len(arms))
	for pass := 0; pass < proxyRuns; pass++ {
		for i, arm := range arms {
			pb, err := arm()
			if err != nil {
				return nil, err
			}
			if pb.ThroughputMbps > best[i].ThroughputMbps {
				best[i] = pb
			}
		}
	}
	for i := range best {
		best[i].Runs = proxyRuns
	}
	return best, nil
}

// benchNode builds one edge node as cmd/darwin-proxy deploys it — a
// static-expert decider over a sharded engine with batched publication (the
// bench measures the deployed fast path, not the publish-every-request debug
// setting), behind the one proxy constructor with DefaultResilience and the
// given overload stages. Every arm below builds through it, so every arm
// times the pipeline that ships.
func benchNode(originURL string, shards int, ov server.Overload) (*server.Proxy, error) {
	dec, err := baselines.NewStaticSharded(cache.Expert{Freq: 1, MaxSize: 1 << 20},
		cache.EvalConfig{HOCBytes: 256 << 10, DCBytes: 32 << 20}, shards)
	if err != nil {
		return nil, err
	}
	dec.Engine().(*cache.Sharded).SetPublishEvery(32)
	return server.NewOverloadProxy(dec, originURL, 0, server.DefaultResilience(), ov), nil
}

// benchProxyOnce measures end-to-end throughput of the deployed proxy for a
// static-expert decider over a cache engine with the given shard count:
// shards=1 is the single-lock data plane, shards=N stripes the object space.
// Latencies are zeroed so lock contention — not injected delay — bounds
// throughput. Every call builds a fresh proxy and cache; repetition is
// bestOf's job.
func benchProxyOnce(shards, concurrency int) (ProxyBench, error) {
	tr, err := exp.SyntheticMix(50, 30_000, 11)
	if err != nil {
		return ProxyBench{}, err
	}
	origin := &server.Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	proxy, err := benchNode(originSrv.URL, shards, server.DefaultOverload())
	if err != nil {
		return ProxyBench{}, err
	}
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()
	res, err := server.RunLoad(context.Background(), tr, server.LoadConfig{
		ProxyURL:    proxySrv.URL,
		Concurrency: concurrency,
	})
	if err != nil {
		return ProxyBench{}, err
	}
	name := fmt.Sprintf("proxy-throughput/shards=%d", shards)
	return ProxyBench{
		Name:           name,
		Shards:         shards,
		Concurrency:    concurrency,
		Requests:       res.Requests,
		Errors:         res.Errors,
		ThroughputMbps: res.ThroughputBps() / 1e6,
		ReqPerSec:      float64(res.Requests) / res.Wall.Seconds(),
		P99Millis:      float64(res.LatencyPercentile(99).Microseconds()) / 1000,
	}, nil
}

// benchProxyMatrixArms builds the arms sweeping the axes the sharding claim
// actually depends on: GOMAXPROCS (can handlers run in parallel at all?),
// shard count (is the data plane striped?), and client concurrency (is there
// contention to relieve?). On a single-core container the honest result is
// that shards=1 wins at GOMAXPROCS=1 — shard routing is pure overhead
// without scheduler parallelism — and the matrix records that rather than
// hiding it. GOMAXPROCS values above NumCPU are deliberately not swept:
// oversubscription measures the scheduler, not the cache. Each arm sets and
// restores GOMAXPROCS itself, since bestOf interleaves it with arms from
// other sections.
func benchProxyMatrixArms() []func() (ProxyBench, error) {
	gmps := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		gmps = append(gmps, n)
	}
	var arms []func() (ProxyBench, error)
	for _, gmp := range gmps {
		for _, shards := range []int{1, 4} {
			for _, conc := range []int{16, 64} {
				arms = append(arms, func() (ProxyBench, error) {
					prev := runtime.GOMAXPROCS(gmp)
					defer runtime.GOMAXPROCS(prev)
					pb, err := benchProxyOnce(shards, conc)
					if err != nil {
						return ProxyBench{}, err
					}
					pb.Name = fmt.Sprintf("proxy-matrix/gmp=%d/shards=%d/conc=%d", gmp, shards, conc)
					pb.GOMAXPROCS = gmp
					return pb, nil
				})
			}
		}
	}
	return arms
}

// benchOverloadProxy measures the overload-protection stages' happy-path tax:
// the same deadline-carrying closed-loop load against a healthy origin, with
// the overload stages (breaker accounting, admission, deadline propagation,
// hedging arming) either absent (retry-only) or present. With a healthy
// origin the two should be within noise of each other — protection must be
// ~free until faults make it earn its keep. Repetition is bestOf's job, so
// the tax comparison is best-vs-best instead of one noise sample against
// another.
func benchOverloadProxyOnce(shards, concurrency int, protected bool) (ProxyBench, error) {
	tr, err := exp.SyntheticMix(50, 30_000, 11)
	if err != nil {
		return ProxyBench{}, err
	}
	origin := &server.Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	ov := server.Overload{}
	name := "proxy-overload/retry-only"
	if protected {
		ov = server.DefaultOverload()
		name = "proxy-overload/protected"
	}
	proxy, err := benchNode(originSrv.URL, shards, ov)
	if err != nil {
		return ProxyBench{}, err
	}
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()
	lr, err := server.RunLoad(context.Background(), tr, server.LoadConfig{
		ProxyURL:    proxySrv.URL,
		Concurrency: concurrency,
		Deadline:    250 * time.Millisecond,
	})
	if err != nil {
		return ProxyBench{}, err
	}
	return ProxyBench{
		Name:           name,
		Shards:         shards,
		Concurrency:    concurrency,
		Requests:       lr.Requests,
		Errors:         lr.Errors,
		ThroughputMbps: lr.ThroughputBps() / 1e6,
		ReqPerSec:      float64(lr.Requests) / lr.Wall.Seconds(),
		P99Millis:      float64(lr.LatencyPercentile(99).Microseconds()) / 1000,
		OnTimeRate:     lr.GoodputRate(),
		Shed:           lr.Shed,
	}, nil
}

// benchClusterOnce measures end-to-end throughput of the distributed edge:
// a front tier consistent-hash routing over `nodes` caching proxies that
// peer-fill from each other on misses, against one shared origin. nodes=1 is
// the degenerate cluster — one backend, no peers — so the delta to nodes=3
// prices the cluster machinery (ring routing, one relay hop, sibling probes)
// against its payoff (aggregate cache capacity, peer fills replacing origin
// hops). Each node runs the deployed pipeline (benchNode).
func benchClusterOnce(nodes, shards, concurrency int) (ProxyBench, error) {
	tr, err := exp.SyntheticMix(50, 30_000, 11)
	if err != nil {
		return ProxyBench{}, err
	}
	origin := &server.Origin{}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()

	proxies := make([]*server.Proxy, nodes)
	urls := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		proxies[i], err = benchNode(originSrv.URL, shards, server.DefaultOverload())
		if err != nil {
			return ProxyBench{}, err
		}
		srv := httptest.NewServer(proxies[i])
		defer srv.Close()
		urls[i] = srv.URL
	}
	if nodes > 1 {
		for i, p := range proxies {
			if err := p.SetPeers(server.PeerConfig{Self: urls[i], Nodes: urls}); err != nil {
				return ProxyBench{}, err
			}
		}
	}
	front, err := server.NewFront(server.FrontConfig{Backends: urls})
	if err != nil {
		return ProxyBench{}, err
	}
	frontSrv := httptest.NewServer(front)
	defer frontSrv.Close()

	lr, err := server.RunLoad(context.Background(), tr, server.LoadConfig{
		ProxyURL:    frontSrv.URL,
		Concurrency: concurrency,
	})
	if err != nil {
		return ProxyBench{}, err
	}
	ohr := 0.0
	if lr.Requests > 0 {
		ohr = float64(lr.HOCHits+lr.DCHits+lr.PeerFills) / float64(lr.Requests)
	}
	return ProxyBench{
		Name:           fmt.Sprintf("cluster/nodes=%d", nodes),
		Shards:         shards,
		Concurrency:    concurrency,
		Nodes:          nodes,
		Requests:       lr.Requests,
		Errors:         lr.Errors,
		ThroughputMbps: lr.ThroughputBps() / 1e6,
		ReqPerSec:      float64(lr.Requests) / lr.Wall.Seconds(),
		P99Millis:      float64(lr.LatencyPercentile(99).Microseconds()) / 1000,
		OHR:            ohr,
		PeerFills:      lr.PeerFills,
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
