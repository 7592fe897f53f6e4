// Package lb models the CDN load-balancing layer of §2.1: content-aware
// request routing over a server cluster using consistent hashing with
// bounded loads, re-evaluated periodically (the DNS-TTL analogue). Its role
// in the reproduction is twofold. Offline, Split *generates* the per-server
// traffic-mix shifts that motivate Darwin: as capacities or demand change,
// the balancer spills traffic between servers, so the request sub-stream any
// one server sees changes composition over time — even when the global
// workload is stable. Online, the same Ring routes live HTTP traffic in the
// front tier (server.Front), where the Readiness hook is fed from backend
// /readyz probes and a Replicator widens hot objects over ring successors.
package lb

import (
	"fmt"
	"sort"

	"darwin/internal/trace"
)

// Config parameterises a cluster balancer.
type Config struct {
	// Servers is the cluster size.
	Servers int
	// LoadFactor is the bounded-loads ε: within one rebalance window a
	// server accepts at most (1+ε)·(window requests / servers)·weight
	// requests before spilling to its ring successor (default 0.25).
	LoadFactor float64
	// RebalanceEvery is the window length in requests between load resets —
	// the small-TTL DNS re-evaluation of §2.1 (default 10_000).
	RebalanceEvery int
	// WeightSchedule, when non-nil, returns the capacity weights for a given
	// rebalance window — modelling drains, flash crowds, and capacity
	// changes that shift traffic mixes between servers (static weights are
	// a schedule that ignores its argument). nil means uniform.
	WeightSchedule func(window int) []float64
	// Readiness, when non-nil, scales each server's effective weight by its
	// health at every rebalance boundary: 1 for a fully ready server, 0 for
	// one that must receive no new traffic (draining, or its origin circuit
	// breaker is open), fractions for partial capacity. This is how the
	// serving tier's /readyz surface feeds back into routing — an unready
	// edge sheds its ring weight and the bounded-loads spill redistributes
	// its share to ring successors until it recovers.
	Readiness func(window, server int) float64
}

func (c Config) validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("lb: Servers must be > 0, got %d", c.Servers)
	}
	return nil
}

// virtualNodes is the number of ring entries per server.
const virtualNodes = 64

// WithDefaults returns c with every unset (<= 0) tuning field replaced by
// its documented default. NewRing applies it; server.FrontConfig takes its
// RebalanceEvery default from it.
func (c Config) WithDefaults() Config {
	if c.LoadFactor <= 0 {
		c.LoadFactor = 0.25
	}
	if c.RebalanceEvery <= 0 {
		c.RebalanceEvery = 10_000
	}
	return c
}

type ringEntry struct {
	hash   uint64
	server int
}

func sortRingEntries(ring []ringEntry) {
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
}

// Split routes an entire trace through a ring and returns each server's
// sub-trace, preserving timestamps. This is how the reproduction derives
// "per-server production traces" — sub-streams whose composition shifts at
// rebalance boundaries — from one global workload. Because the trace length
// is known up front, Split begins each window with its exact request count:
// the final window of a trace that does not divide RebalanceEvery gets
// budgets scaled to the requests actually remaining, so a readiness or
// weight change in that window still bites (a full-window budget would
// otherwise dwarf the partial window's traffic and the re-weighting would be
// silently dropped).
func Split(tr *trace.Trace, cfg Config) ([]*trace.Trace, error) {
	rg, err := NewRing(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]*trace.Trace, rg.cfg.Servers)
	for s := range out {
		out[s] = &trace.Trace{Name: fmt.Sprintf("%s-server%d", tr.Name, s)}
	}
	reqs := tr.Requests
	every := rg.cfg.RebalanceEvery
	for start, window := 0, 0; start < len(reqs); start, window = start+every, window+1 {
		end := start + every
		if end > len(reqs) {
			end = len(reqs)
		}
		rg.BeginWindow(window, end-start)
		for _, r := range reqs[start:end] {
			s := rg.Route(r.ID)
			out[s].Requests = append(out[s].Requests, r)
		}
	}
	return out, nil
}
