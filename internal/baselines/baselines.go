// Package baselines implements every cache-management scheme the Darwin
// paper compares against (§6 "Baselines"):
//
//   - StaticExpert — a fixed (f, s) admission threshold pair;
//   - Percentile — deploys the expert nearest the 60th/90th percentiles of
//     the empirical frequency/size distributions, re-estimated every N
//     requests;
//   - HillClimbing — runs two shadow caches at (f+Δf, s) and (f, s+Δs),
//     switches the main cache to the best of the three every N requests, and
//     flips the probe directions when the main cache wins;
//   - AdaptSize — Berger et al. (NSDI'17): probabilistic size-threshold
//     admission e^(−size/c) with c tuned by a Che-approximation Markov model
//     over a sliding window of observed objects;
//   - DirectMapping — a neural classifier from warm-up traffic features
//     straight to the predicted best expert (§4's rejected design).
//
// All baselines implement the Server interface so the experiment harness can
// drive them interchangeably with Darwin's controller.
package baselines

import (
	"darwin/internal/cache"
	"darwin/internal/trace"
)

// Server is a cache server fed one request at a time.
type Server interface {
	// Name identifies the scheme in reports.
	Name() string
	// Serve processes one request.
	Serve(r trace.Request) cache.Result
	// Metrics returns accumulated cache metrics.
	Metrics() cache.Metrics
	// ResetMetrics clears counters without disturbing cache state (warm-up
	// exclusion).
	ResetMetrics()
}

// Play drives a full trace through a server, resetting metrics after the
// leading warmupFrac of requests, and returns the post-warm-up metrics.
func Play(s Server, tr *trace.Trace, warmupFrac float64) cache.Metrics {
	warm := int(float64(tr.Len()) * warmupFrac)
	for i, r := range tr.Requests {
		if i == warm {
			s.ResetMetrics()
		}
		s.Serve(r)
	}
	return s.Metrics()
}

// newHierarchy builds a hierarchy from an eval config and initial expert.
func newHierarchy(cfg cache.EvalConfig, e cache.Expert) (*cache.Hierarchy, error) {
	return cache.New(cache.Config{
		HOCBytes:    cfg.HOCBytes,
		DCBytes:     cfg.DCBytes,
		HOCEviction: cfg.HOCEviction,
		DCEviction:  cfg.DCEviction,
		Expert:      e,
		DCLog:       cfg.DCLog,
	})
}

// Static is the fixed-expert baseline. It runs over any cache.Engine: the
// serial Hierarchy for trace replay (NewStatic) or a Sharded engine for the
// concurrent proxy data plane (NewStaticSharded; one shard is the paper's
// original one-lock-per-HOC arrangement). The other baselines keep their
// serial single-hierarchy form and run in the simulator only.
type Static struct {
	eng  cache.Engine
	name string
}

// NewStatic builds a static-expert server over a serial hierarchy.
func NewStatic(e cache.Expert, cfg cache.EvalConfig) (*Static, error) {
	h, err := newHierarchy(cfg, e)
	if err != nil {
		return nil, err
	}
	return &Static{eng: h, name: e.String()}, nil
}

// NewStaticSharded builds a static-expert server over a sharded engine with
// the given shard count — safe for concurrent callers, for the proxy data
// plane. shards <= 1 still builds a (single-shard) Sharded engine so the
// result always advertises Concurrent() == true.
func NewStaticSharded(e cache.Expert, cfg cache.EvalConfig, shards int) (*Static, error) {
	s, err := cache.NewSharded(cache.Config{
		HOCBytes:    cfg.HOCBytes,
		DCBytes:     cfg.DCBytes,
		HOCEviction: cfg.HOCEviction,
		DCEviction:  cfg.DCEviction,
		Expert:      e,
		DCLog:       cfg.DCLog,
	}, shards)
	if err != nil {
		return nil, err
	}
	return &Static{eng: s, name: e.String()}, nil
}

// Name implements Server.
func (s *Static) Name() string { return s.name }

// Serve implements Server.
func (s *Static) Serve(r trace.Request) cache.Result { return s.eng.Serve(r) }

// Lookup probes residency without mutating cache state (server.Decider).
func (s *Static) Lookup(id uint64) cache.Result { return s.eng.Lookup(id) }

// Metrics implements Server.
func (s *Static) Metrics() cache.Metrics { return s.eng.Metrics() }

// ResetMetrics implements Server.
func (s *Static) ResetMetrics() { s.eng.ResetMetrics() }

// Engine exposes the underlying cache engine (occupancy inspection in tests
// and reports).
func (s *Static) Engine() cache.Engine { return s.eng }

// Concurrent reports whether this server may be driven from multiple
// goroutines at once — true exactly when the underlying engine is
// concurrency-safe (built by NewStaticSharded).
func (s *Static) Concurrent() bool { return s.eng.Concurrent() }
