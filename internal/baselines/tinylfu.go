package baselines

import (
	"fmt"

	"darwin/internal/cache"
	"darwin/internal/trace"
)

// TinyLFU is an extra admission baseline beyond the paper's comparison set
// (cited there as a frequency-admission scheme [17], Einziger et al., ACM
// ToS'17): a candidate object is admitted into the HOC only if its observed
// request frequency exceeds that of the object the eviction policy would
// displace. Frequencies are the hierarchy's own request counts, reset every
// window (the reproduction's stand-in for TinyLFU's halving sketch);
// admission is evaluated on every request, including the miss path, like
// AdaptSize.
type TinyLFU struct {
	hier   *cache.Hierarchy
	window int
	n      int
}

// TinyLFUConfig configures the baseline.
type TinyLFUConfig struct {
	// Window is the frequency-reset period in requests (TinyLFU's aging).
	Window int
	// Eval sizes the cache.
	Eval cache.EvalConfig
}

// NewTinyLFU builds the baseline.
func NewTinyLFU(cfg TinyLFUConfig) (*TinyLFU, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("baselines: tinylfu window must be > 0")
	}
	h, err := cache.New(cache.Config{
		HOCBytes:    cfg.Eval.HOCBytes,
		DCBytes:     cfg.Eval.DCBytes,
		HOCEviction: cfg.Eval.HOCEviction,
		DCEviction:  cfg.Eval.DCEviction,
	})
	if err != nil {
		return nil, err
	}
	h.SetAdmission(func(count int, _ int64, _ int64) bool {
		vid, _, ok := h.HOCVictim()
		if !ok {
			return true // empty HOC: admit freely
		}
		// Admit only when the candidate is (strictly) more frequent than the
		// incumbent victim — TinyLFU's core comparison.
		return count > h.Count(vid)
	})
	h.SetAdmitOnMiss(true)
	return &TinyLFU{hier: h, window: cfg.Window}, nil
}

// Name implements Server.
func (t *TinyLFU) Name() string { return "tinylfu" }

// Serve implements Server.
func (t *TinyLFU) Serve(r trace.Request) cache.Result {
	res := t.hier.Serve(r)
	t.n++
	if t.n >= t.window {
		// Window aging: reset the frequency view (halving in real TinyLFU).
		t.hier.ResetCounts()
		t.n = 0
	}
	return res
}

// Metrics implements Server.
func (t *TinyLFU) Metrics() cache.Metrics { return t.hier.Metrics() }

// ResetMetrics implements Server.
func (t *TinyLFU) ResetMetrics() { t.hier.ResetMetrics() }
