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
	// DCLog optionally journals DC admissions and evictions to a durable
	// write-ahead log (nil = no journaling; simulation default).
	DCLog DCLog
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

// Evaluate plays tr through a fresh Hierarchy running expert e and returns
// the post-warm-up metrics.
func Evaluate(tr *trace.Trace, e Expert, cfg EvalConfig) (Metrics, error) {
	h, err := New(Config{
		HOCBytes:    cfg.HOCBytes,
		DCBytes:     cfg.DCBytes,
		HOCEviction: cfg.HOCEviction,
		DCEviction:  cfg.DCEviction,
		Expert:      e,
	})
	if err != nil {
		return Metrics{}, err
	}
	warm := int(float64(tr.Len()) * cfg.WarmupFrac)
	for i, r := range tr.Requests {
		if i == warm {
			h.ResetMetrics()
		}
		h.Serve(r)
	}
	return h.Metrics(), nil
}

// EvaluateAll evaluates every expert on tr and returns the metrics in expert
// order. Each expert gets an independent, cold hierarchy, so the evaluations
// fan out over the engine's worker pool (par.Default() wide) with results
// bit-identical to the serial loop. Failures are aggregated: the returned
// error names every expert that failed, not just the first.
func EvaluateAll(tr *trace.Trace, experts []Expert, cfg EvalConfig) ([]Metrics, error) {
	return EvaluateAllParallel(tr, experts, cfg, 0)
}

// EvaluateAllParallel is EvaluateAll with an explicit worker-pool width;
// parallelism <= 0 selects par.Default(), 1 runs the reference serial path.
func EvaluateAllParallel(tr *trace.Trace, experts []Expert, cfg EvalConfig, parallelism int) ([]Metrics, error) {
	out := make([]Metrics, len(experts))
	err := par.ForEach(len(experts), parallelism, func(i int) error {
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
