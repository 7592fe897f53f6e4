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
	// Serve processes one request.
	Serve(r trace.Request) cache.Result
	// Metrics returns accumulated cache metrics.
	Metrics() cache.Metrics
}

// Play drives a full trace through a server and returns the metrics of the
// requests after the leading warmupFrac: the counters at the warm-up mark
// are subtracted from the final ones. Nothing is reset, so what a scheme
// learns from its own counters (Darwin's round rewards, HillClimbing's
// window comparison) is the same at any warmupFrac.
func Play(s Server, tr *trace.Trace, warmupFrac float64) cache.Metrics {
	warm := int(float64(tr.Len()) * warmupFrac)
	var atWarm cache.Metrics
	for i, r := range tr.Requests {
		if i == warm {
			atWarm = s.Metrics()
		}
		s.Serve(r)
	}
	return s.Metrics().Sub(atWarm)
}
