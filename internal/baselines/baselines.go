// Package baselines implements every cache-management scheme the Darwin
// paper compares against (§6 "Baselines"):
//
//   - StaticExpert — a fixed (f, s) admission threshold pair, which is
//     the cache engine itself (cache.Evaluate, or a cache.Sharded as a
//     static node's decider);
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
// The adaptive baselines implement the Server interface so the experiment
// harness can drive them interchangeably with Darwin's controller.
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
	})
}
