package main

import (
	"fmt"

	"darwin/internal/exp"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// clients is the number of closed-loop clients (and keep-alive connections)
// on the HTTP workloads. The generator, the proxies and the origin share the
// host's two cores, so more clients than cores would time the scheduler.
const clients = 2

// workload is one set of inputs. Every HTTP node is the deployed plane (see
// edgeNode); the workloads differ in trace and topology only.
type workload struct {
	name string
	why  string // which layers it loads, and why it is in the set
	// nodes is the number of edge nodes: 1 is a bare node, 3 puts server.Front
	// and peer fill in front of them, 0 is the simulator without HTTP.
	nodes int
	// warm and timed are the request counts of the untimed prefix and of one
	// timed repetition at full scale. timed is sized to about four seconds so
	// a repetition holds several hundred samples beyond its p99.
	warm, timed int
	// gen returns requests [off, off+n) of the workload's request stream,
	// which it generates long enough for any off up to span.
	gen func(n, off, span int) (*trace.Trace, error)
}

// catalogSeed seeds every workload's generator, and so fixes its object
// population: which objects exist, how popular each is and how large. The
// benchmark's own seed then picks which stretch of that stream is replayed.
// tracegen draws sizes and popularity from one generator, so seeding it with
// the benchmark's seed would redraw the ten hottest objects' sizes on every
// run, and those alone decide whether the hot set fits the 256 KiB HOC: over
// ten seeds edge-hot's ohr ranged 0.12–0.36, a spread of 50% that no bound
// could tell from a regression. A workload is its population; the seed draws
// the sample.
const catalogSeed = 11

// The benchmark's seed selects one of windowSlots offsets into the stream,
// windowStride requests apart at full scale.
const (
	windowSlots  = 256
	windowStride = 977
)

// mixStream is an Image:Download stream of the given Image share.
func mixStream(imagePct int, seed int64) func(n, off, span int) (*trace.Trace, error) {
	return func(n, off, span int) (*trace.Trace, error) {
		tr, err := tracegen.ImageDownloadMix(imagePct, n+span, seed)
		if err != nil {
			return nil, err
		}
		return tr.Window(off, off+n), nil
	}
}

// simPlays is how many times one sim-shift repetition replays its trace, each
// on a fresh controller; the repetition reports the median play.
const simPlays = 9

// simBatch is the request count of one timed sim-shift batch: latency on
// sim-shift is the per-request time of a batch, which is what a client of the
// engine would see if a learning step stalled the requests behind it.
const simBatch = 1000

var workloads = []workload{
	{
		name:  "edge-hot",
		why:   "one node, Image:Download 50:50, working set fits the DC: per-request cost (parse, admit, decider, header and body write, net/http) dominates; journal and origin path do little",
		nodes: 1, warm: 20_000, timed: 100_000,
		gen: mixStream(50, catalogSeed),
	},
	{
		name:  "edge-churn",
		why:   "same node, Scan:Video 70:30, working set far beyond the DC: every miss is an origin fetch, a 48 KB relay, a journal put and an eviction; a hit-path gain paid for on the write side shows here",
		nodes: 1, warm: 20_000, timed: 64_000,
		gen: func(n, off, span int) (*trace.Trace, error) {
			tr, err := tracegen.Generate(tracegen.MixConfig{
				Classes:  []tracegen.Class{tracegen.Scan(), tracegen.Video()},
				Weights:  []float64{70, 30},
				Requests: n + span,
				Seed:     catalogSeed,
			})
			if err != nil {
				return nil, err
			}
			return tr.Window(off, off+n), nil
		},
	},
	{
		name:  "cluster3",
		why:   "server.Front over three peer-filling nodes, edge-hot's trace: the delta to edge-hot prices Front.pick/relay, lb.Ring, peer probes and the second HTTP hop, none of which run in edge-*",
		nodes: 3, warm: 20_000, timed: 48_000,
		gen: mixStream(50, catalogSeed),
	},
	{
		name:  "sim-shift",
		why:   "no HTTP: Controller.Play over four segments of shifting Image share; core, cache, features, bandit and neural do all the work, so an engine or learner change shows only here, not on edge-*",
		nodes: 0, warm: 0, timed: 2_000_000,
		gen: shiftTrace,
	},
}

// shiftTrace concatenates four segments whose best experts differ, as
// exp.PrototypeTrace does, each a window of its own stream.
func shiftTrace(n, off, span int) (*trace.Trace, error) {
	var segs []*trace.Trace
	for i, pct := range []int{100, 0, 75, 25} {
		tr, err := mixStream(pct, catalogSeed+int64(i))(n/4, off, span)
		if err != nil {
			return nil, err
		}
		segs = append(segs, tr)
	}
	return trace.Concat("shift", segs...), nil
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scale sizes a run. "full" is the benchmark; "tiny" exists so the smoke test
// can drive every workload and the traced pass in a few seconds.
type scale struct {
	name string
	// train is the offline corpus the model is trained on during set-up.
	train exp.Scale
	// shrink divides every workload's request counts.
	shrink int
	// reps is the number of timed repetitions per workload in a full run
	// (a single-workload run repeats until its time budget is spent).
	reps int
}

// simSample: the traced pass records one sim-shift request in this many,
// which keeps tracing overhead on a ~0.2 µs operation under 20%.
const simSample = 64

func scaleByName(name string) (scale, error) {
	switch name {
	case "full":
		return scale{name: name, train: exp.Small(), shrink: 1, reps: 5}, nil
	case "tiny":
		tr := exp.Small()
		tr.OfflineTraceLen = 2_000
		tr.TrainSeeds = 1
		return scale{name: name, train: tr, shrink: 40, reps: 1}, nil
	}
	return scale{}, fmt.Errorf("unknown scale %q (full, tiny)", name)
}

func (sc scale) sizes(w workload) (warm, timed int) {
	return w.warm / sc.shrink, w.timed / sc.shrink
}

// trace generates the stretch of w's stream that seed selects.
func (sc scale) trace(w workload, seed int64) (*trace.Trace, error) {
	warm, timed := sc.sizes(w)
	stride := windowStride / sc.shrink
	return w.gen(warm+timed, int(uint64(seed)%windowSlots)*stride, (windowSlots-1)*stride)
}
