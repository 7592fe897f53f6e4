package baselines

import (
	"fmt"
	"sort"

	"darwin/internal/cache"
	"darwin/internal/stats"
	"darwin/internal/trace"
)

// Percentile re-estimates the empirical distributions of object request
// frequencies and request sizes over N-request windows and, for the next
// window, deploys the grid expert whose (f, s) lies closest to the
// frequency and size percentiles freqPct and sizePct (paper §6: N = 100K
// requests at paper scale).
type Percentile struct {
	hier    *cache.Hierarchy
	experts []cache.Expert
	window  int

	n      int
	counts map[uint64]int
	sizes  []float64
}

// PercentileConfig configures the baseline.
type PercentileConfig struct {
	// Experts is the grid to choose from.
	Experts []cache.Expert
	// Window is N, the re-estimation period in requests.
	Window int
	// Eval sizes the cache.
	Eval cache.EvalConfig
}

// The deployed percentiles of object request frequency and request size, as
// the paper runs the baseline (§6).
const (
	freqPct = 60
	sizePct = 90
)

// NewPercentile builds the baseline, deploying Experts[0] initially.
func NewPercentile(cfg PercentileConfig) (*Percentile, error) {
	if len(cfg.Experts) == 0 {
		return nil, fmt.Errorf("baselines: percentile needs experts")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("baselines: percentile window must be > 0")
	}
	h, err := newHierarchy(cfg.Eval, cfg.Experts[0])
	if err != nil {
		return nil, err
	}
	return &Percentile{
		hier:    h,
		experts: cfg.Experts,
		window:  cfg.Window,
		counts:  make(map[uint64]int),
	}, nil
}

// Name implements Server.
func (p *Percentile) Name() string { return "percentile" }

// Serve implements Server.
func (p *Percentile) Serve(r trace.Request) cache.Result {
	res := p.hier.Serve(r)
	p.counts[r.ID]++
	p.sizes = append(p.sizes, float64(r.Size))
	p.n++
	if p.n >= p.window {
		p.redeploy()
	}
	return res
}

func (p *Percentile) redeploy() {
	freqs := make([]float64, 0, len(p.counts))
	for _, c := range p.counts {
		freqs = append(freqs, float64(c))
	}
	sort.Float64s(freqs)
	f := stats.PercentileSorted(freqs, freqPct)
	s := stats.Percentile(p.sizes, sizePct)
	p.hier.SetExpert(cache.Nearest(p.experts, f, s))
	p.n = 0
	p.counts = make(map[uint64]int)
	p.sizes = p.sizes[:0]
}

// Metrics implements Server.
func (p *Percentile) Metrics() cache.Metrics { return p.hier.Metrics() }

// ResetMetrics implements Server.
func (p *Percentile) ResetMetrics() { p.hier.ResetMetrics() }

// Expert returns the currently deployed expert (for tests).
func (p *Percentile) Expert() cache.Expert { return p.hier.Expert() }
