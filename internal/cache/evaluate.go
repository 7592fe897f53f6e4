package cache

import (
	"fmt"

	"darwin/internal/par"
	"darwin/internal/trace"
)

// EvalConfig configures a single-expert trace evaluation.
type EvalConfig struct {
	// HOCBytes and DCBytes size the cache levels.
	HOCBytes, DCBytes int64
	// WarmupFrac is the leading fraction of requests excluded from metrics
	// (the paper excludes the first 1M of every 10M-request trace → 0.1).
	WarmupFrac float64
	// HOCEviction and DCEviction name eviction policies; empty means LRU.
	HOCEviction, DCEviction string
}

// DefaultEvalConfig returns the scaled simulator defaults (DESIGN.md §5):
// 2 MB HOC, 200 MB DC, 10% warm-up.
func DefaultEvalConfig() EvalConfig {
	return EvalConfig{
		HOCBytes:   2 << 20,
		DCBytes:    200 << 20,
		WarmupFrac: 0.1,
	}
}

// New builds the empty hierarchy this configuration sizes, running expert
// e: the one place a simulated scheme's cache is built from an EvalConfig.
func (cfg EvalConfig) New(e Expert) (*Hierarchy, error) {
	return New(Config{
		HOCBytes:    cfg.HOCBytes,
		DCBytes:     cfg.DCBytes,
		HOCEviction: cfg.HOCEviction,
		DCEviction:  cfg.DCEviction,
		Expert:      e,
	})
}

// Evaluate plays tr through a fresh Hierarchy running expert e and returns
// the post-warm-up metrics.
func Evaluate(tr *trace.Trace, e Expert, cfg EvalConfig) (Metrics, error) {
	m, _, err := EvaluateHits(tr, e, cfg)
	return m, err
}

// EvaluateHits is Evaluate that also records which requests hit the HOC
// after warm-up: bit i of hits (hits[i/64]>>(i%64)&1) is set when request i
// is one of them. The bitset has (tr.Len()+63)/64 words. Warm-up is
// excluded as baselines.Play excludes it: the counters at the warm-up mark
// are subtracted from the final ones.
func EvaluateHits(tr *trace.Trace, e Expert, cfg EvalConfig) (m Metrics, hits []uint64, err error) {
	h, err := cfg.New(e)
	if err != nil {
		return Metrics{}, nil, err
	}
	hits = make([]uint64, (tr.Len()+63)/64)
	warm := int(float64(tr.Len()) * cfg.WarmupFrac)
	var atWarm Metrics
	for i, r := range tr.Requests {
		if i == warm {
			atWarm = h.Metrics()
		}
		if h.Serve(r) == HOCHit && i >= warm {
			hits[i>>6] |= 1 << (i & 63)
		}
	}
	return h.Metrics().Sub(atWarm), hits, nil
}

// EvaluateAll evaluates every expert on tr and returns the metrics in expert
// order. Each expert gets an independent, cold hierarchy, so the evaluations
// fan out over the engine's worker pool (par.Default() wide) with results
// bit-identical to the serial loop. Failures are aggregated: the returned
// error names every expert that failed, not just the first.
func EvaluateAll(tr *trace.Trace, experts []Expert, cfg EvalConfig) ([]Metrics, error) {
	out := make([]Metrics, len(experts))
	err := par.ForEach(len(experts), func(i int) error {
		m, err := Evaluate(tr, experts[i], cfg)
		if err != nil {
			return fmt.Errorf("expert %s: %w", experts[i], err)
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
