package cache

import (
	"fmt"
	"sync"

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
	// HOCEviction names the HOC's eviction policy; empty means LRU. The DC
	// is always LRU.
	HOCEviction string
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
// e: the one place a simulated scheme's cache is built from an EvalConfig,
// so the one place its warm-up fraction is checked. A fraction outside
// [0, 1) (NaN included) would keep the warm-up in the metrics.
func (cfg EvalConfig) New(e Expert) (*Hierarchy, error) {
	if !(cfg.WarmupFrac >= 0 && cfg.WarmupFrac < 1) {
		return nil, fmt.Errorf("cache: warm-up fraction %v outside [0, 1)", cfg.WarmupFrac)
	}
	return New(Config{
		HOCBytes:    cfg.HOCBytes,
		DCBytes:     cfg.DCBytes,
		HOCEviction: cfg.HOCEviction,
		Expert:      e,
	})
}

// Evaluate plays tr through a fresh Hierarchy running expert e and returns
// the post-warm-up metrics. A caller replaying one trace more than once
// shares a Replay instead.
func Evaluate(tr *trace.Trace, e Expert, cfg EvalConfig) (Metrics, error) {
	m, _, err := NewReplay(tr).Hits(e, cfg)
	return m, err
}

// Replay is one trace laid out for the offline phase's many cold replays of
// it. Every replay of a trace builds the same record table: one record per
// distinct id, reached by one probe per request. A Replay builds that table
// once, with every record zero, and records each request's slot in it; a
// replay then starts from a copy of the table and serves request i at its
// slot, with no hash, probe, growth or table allocation of its own. The
// pre-laid records change nothing: a count-0 record reads as a first
// request, and no decision or metric depends on slot order. Nothing moves
// them either, so the slot each admission stores in its level's handle
// holds for the whole replay. Hits may run
// concurrently on one Replay.
type Replay struct {
	tr    *trace.Trace
	keys  idTable  // every id in tr, each a zero record
	slots []uint32 // slots[i] is request i's slot in keys
}

// recordBufs holds *[]objRec record tables that finished replays handed
// back, for the next replay of any trace whose table fits.
var recordBufs sync.Pool

// NewReplay lays tr out for replay.
func NewReplay(tr *trace.Trace) *Replay {
	p := &Replay{tr: tr, slots: make([]uint32, tr.Len())}
	for _, r := range tr.Requests {
		p.keys.upsert(r.ID)
	}
	for i, r := range tr.Requests {
		s, _ := p.keys.find(r.ID)
		p.slots[i] = uint32(s)
	}
	return p
}

// Hits plays the trace through a cold hierarchy that cfg sizes, running
// expert e, and returns the post-warm-up metrics and which requests hit the
// HOC after warm-up: bit i of hits (hits[i/64]>>(i%64)&1) is set when request
// i is one of them. The bitset has (tr.Len()+63)/64 words. Warm-up is
// excluded as baselines.Play excludes it: the counters at the warm-up mark
// are subtracted from the final ones.
func (p *Replay) Hits(e Expert, cfg EvalConfig) (m Metrics, hits []uint64, err error) {
	h, err := cfg.New(e)
	if err != nil {
		return Metrics{}, nil, err
	}
	size := len(p.keys.slots)
	buf, _ := recordBufs.Get().(*[]objRec)
	if buf == nil || cap(*buf) < size {
		buf = new([]objRec)
		*buf = make([]objRec, size)
	}
	defer recordBufs.Put(buf)
	recs := (*buf)[:size]
	copy(recs, p.keys.slots)
	h.objs = idTable{slots: recs, n: p.keys.n, shift: p.keys.shift}

	n := p.tr.Len()
	hits = make([]uint64, (n+63)/64)
	warm := int(float64(n) * cfg.WarmupFrac)
	var atWarm Metrics
	for i, r := range p.tr.Requests {
		if i == warm {
			atWarm = h.m
		}
		if h.serve(p.slots[i], r) == HOCHit && i >= warm {
			hits[i>>6] |= 1 << (i & 63)
		}
	}
	return h.m.Sub(atWarm), hits, nil
}

// EvaluateAll evaluates every expert on tr and returns the metrics in expert
// order. Each expert gets an independent, cold hierarchy over one shared
// Replay, so the evaluations fan out over the engine's worker pool
// (par.Default() wide) with results bit-identical to the serial loop.
// Failures are aggregated: the returned error names every expert that
// failed, not just the first.
func EvaluateAll(tr *trace.Trace, experts []Expert, cfg EvalConfig) ([]Metrics, error) {
	rp := NewReplay(tr)
	out := make([]Metrics, len(experts))
	err := par.ForEach(len(experts), func(i int) error {
		m, _, err := rp.Hits(experts[i], cfg)
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
