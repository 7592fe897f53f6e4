package exp

import (
	"fmt"
	"sort"

	"darwin/internal/cache"
	"darwin/internal/par"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

// GridMetric selects what a Figure-2 style sweep reports.
type GridMetric string

// Figure-2 grid metrics.
const (
	// GridOHR reports the HOC object hit rate (Figures 2a–2d).
	GridOHR GridMetric = "ohr"
	// GridDiskWrite reports DC write bytes per request (Figure 2e).
	GridDiskWrite GridMetric = "diskwrite"
)

// Fig2Grid evaluates every (f, s) expert on one trace and reports the metric
// grid plus the optimum, reproducing the heatmaps of Figure 2.
func Fig2Grid(title string, tr *trace.Trace, experts []cache.Expert, eval cache.EvalConfig, metric GridMetric) (*Report, error) {
	ms, err := cache.EvaluateAll(tr, experts, eval)
	if err != nil {
		return nil, err
	}
	value := func(m cache.Metrics) float64 {
		if metric == GridDiskWrite {
			return m.DiskWritesPerRequest()
		}
		return m.OHR()
	}
	// Collect the distinct threshold axes.
	fset := map[int]bool{}
	sset := map[int64]bool{}
	for _, e := range experts {
		fset[e.Freq] = true
		sset[e.MaxSize] = true
	}
	fs := make([]int, 0, len(fset))
	for f := range fset {
		fs = append(fs, f)
	}
	sort.Ints(fs)
	ss := make([]int64, 0, len(sset))
	for s := range sset {
		ss = append(ss, s)
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })

	byExpert := map[cache.Expert]float64{}
	for i, e := range experts {
		byExpert[e] = value(ms[i])
	}
	rep := &Report{Title: title, Header: []string{"f \\ s"}}
	for _, s := range ss {
		rep.Header = append(rep.Header, cache.Expert{MaxSize: s}.String()[2:])
	}
	bestE, bestV := experts[0], value(ms[0])
	better := func(v float64) bool {
		if metric == GridDiskWrite {
			return v < bestV
		}
		return v > bestV
	}
	for i, e := range experts {
		if v := value(ms[i]); better(v) {
			bestE, bestV = e, v
		}
	}
	for _, f := range fs {
		row := []string{fmt.Sprintf("f=%d", f)}
		for _, s := range ss {
			v, ok := byExpert[cache.Expert{Freq: f, MaxSize: s}]
			if !ok {
				row = append(row, "-")
				continue
			}
			if metric == GridDiskWrite {
				row = append(row, f2(v))
			} else {
				row = append(row, f4(v))
			}
		}
		rep.AddRow(row...)
	}
	if metric == GridDiskWrite {
		rep.AddNote("optimum: %s with %.2f write bytes/request (lower is better)", bestE, bestV)
	} else {
		rep.AddNote("optimum: %s with OHR %.4f", bestE, bestV)
	}
	return rep, nil
}

// Fig2Suite reproduces all five panels of Figure 2: two "production windows"
// (different media mixes), the Image class, and the Download class under OHR
// and disk-write metrics. It returns the reports in paper order and the best
// expert per panel so callers can check the "no one-size-fits-all" claim.
func Fig2Suite(sc Scale) ([]*Report, error) {
	mk := func(pct int, seed int64) (*trace.Trace, error) {
		return tracegen.ImageDownloadMix(pct, sc.OnlineTraceLen, seed)
	}
	type panel struct {
		title  string
		pct    int
		seed   int64
		metric GridMetric
	}
	panels := []panel{
		{"Figure 2a: production window 1 OHR (mix 60:40)", 60, sc.Seed + 11, GridOHR},
		{"Figure 2b: production window 2 OHR (mix 30:70)", 30, sc.Seed + 12, GridOHR},
		{"Figure 2c: Image class OHR", 100, sc.Seed + 13, GridOHR},
		{"Figure 2d: Download class OHR", 0, sc.Seed + 14, GridOHR},
		{"Figure 2e: Download class disk writes", 0, sc.Seed + 14, GridDiskWrite},
	}
	// Panels are independent (trace generation + grid evaluation), so they
	// fan out over the engine; out[i] keeps paper order deterministic.
	out, err := par.Map(panels, func(i int, p panel) (*Report, error) {
		tr, err := mk(p.pct, p.seed)
		if err != nil {
			return nil, fmt.Errorf("panel %s: %w", p.title, err)
		}
		rep, err := Fig2Grid(p.title, tr, sc.Experts, sc.Eval, p.metric)
		if err != nil {
			return nil, fmt.Errorf("panel %s: %w", p.title, err)
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
