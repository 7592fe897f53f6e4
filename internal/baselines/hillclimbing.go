package baselines

import (
	"fmt"

	"darwin/internal/cache"
	"darwin/internal/trace"
)

// HillClimbing deploys expert (f, s) in the main cache while two shadow
// caches concurrently run (f+Δf, s) and (f, s+Δs) on the same request
// stream. Every N requests the main cache adopts the best-performing of the
// three; if the main expert survives, the shadows flip to probe the downhill
// directions (f−Δf, s), (f, s−Δs) (§6 "Baselines"). The shadow caches are
// the memory overhead the paper criticises (§3.2.1 R4) — they are real
// hierarchies here too.
type HillClimbing struct {
	main    *cache.Hierarchy
	shadows [2]*cache.Hierarchy
	cfg     HillClimbingConfig

	f       int
	s       int64
	up      bool // current probe direction: true = (+Δf, +Δs)
	n       int
	mark    cache.Metrics
	smark   [2]cache.Metrics
	current [2]cache.Expert
}

// HillClimbingConfig configures the baseline.
type HillClimbingConfig struct {
	// Initial is the starting expert.
	Initial cache.Expert
	// DeltaS is the size probe step (paper: 1KB or 10KB; default 1KB).
	DeltaS int64
	// Window is N, the comparison period in requests (paper: 0.5M).
	Window int
	// Eval sizes the caches.
	Eval cache.EvalConfig
}

// The frequency probe step (paper: Δf = 1) and the floors no probe goes
// below: frequency 1 and 1KB.
const (
	deltaF  = 1
	minFreq = 1
	minSize = 1 << 10
)

// NewHillClimbing builds the baseline with warmed-up probe state.
func NewHillClimbing(cfg HillClimbingConfig) (*HillClimbing, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("baselines: hill climbing window must be > 0")
	}
	if cfg.DeltaS <= 0 {
		cfg.DeltaS = 1 << 10
	}
	main, err := cfg.Eval.New(cfg.Initial)
	if err != nil {
		return nil, err
	}
	hc := &HillClimbing{
		main: main,
		cfg:  cfg,
		f:    cfg.Initial.Freq,
		s:    cfg.Initial.MaxSize,
		up:   true,
	}
	if err := hc.rebuildShadows(); err != nil {
		return nil, err
	}
	return hc, nil
}

// probeExperts returns the two probe experts for the current direction.
func (hc *HillClimbing) probeExperts() [2]cache.Expert {
	df, ds := deltaF, hc.cfg.DeltaS
	if !hc.up {
		df, ds = -df, -ds
	}
	f2 := max(hc.f+df, minFreq)
	s2 := max(hc.s+ds, minSize)
	return [2]cache.Expert{
		{Freq: f2, MaxSize: hc.s},
		{Freq: hc.f, MaxSize: s2},
	}
}

// rebuildShadows starts fresh shadow caches for the current probes.
func (hc *HillClimbing) rebuildShadows() error {
	hc.current = hc.probeExperts()
	for i, e := range hc.current {
		h, err := hc.cfg.Eval.New(e)
		if err != nil {
			return err
		}
		hc.shadows[i] = h
		hc.smark[i] = cache.Metrics{}
	}
	hc.mark = hc.main.Metrics()
	hc.n = 0
	return nil
}

// Serve implements Server.
func (hc *HillClimbing) Serve(r trace.Request) cache.Result {
	res := hc.main.Serve(r)
	for _, sh := range hc.shadows {
		sh.Serve(r)
	}
	hc.n++
	if hc.n >= hc.cfg.Window {
		hc.step()
	}
	return res
}

// step compares the main cache with the shadows over the elapsed window and
// moves or flips direction.
func (hc *HillClimbing) step() {
	mainOHR := hc.main.Metrics().Sub(hc.mark).OHR()
	best, bestOHR := -1, mainOHR
	for i, sh := range hc.shadows {
		ohr := sh.Metrics().Sub(hc.smark[i]).OHR()
		if ohr > bestOHR {
			best, bestOHR = i, ohr
		}
	}
	if best >= 0 {
		// A shadow won: adopt its expert in the main cache and probe onward
		// in the same direction.
		e := hc.current[best]
		hc.f, hc.s = e.Freq, e.MaxSize
		hc.main.SetExpert(e)
	} else {
		// Main survived: flip probe direction.
		hc.up = !hc.up
	}
	// Restart shadows on the new probes (cold, as fresh shadow caches are).
	_ = hc.rebuildShadows() // config already validated; cannot fail
}

// Metrics implements Server.
func (hc *HillClimbing) Metrics() cache.Metrics { return hc.main.Metrics() }
