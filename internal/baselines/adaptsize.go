package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"darwin/internal/cache"
	"darwin/internal/trace"
)

// AdaptSize reproduces Berger et al.'s AdaptSize (NSDI'17) as the paper
// describes it (§3.2.1): HOC admission is probabilistic in the object size,
// admit with probability e^(−size/c), and the size parameter c is re-tuned
// every window by maximising the OHR predicted by a Markov (Che
// approximation) model of the cache over the window's observed object mix.
// Frequency is deliberately ignored — that is the limitation Darwin exploits.
type AdaptSize struct {
	hier *cache.Hierarchy
	cfg  AdaptSizeConfig
	rng  *rand.Rand

	c      float64 // current size parameter
	n      int
	counts map[uint64]int
	osize  map[uint64]int64
}

// cheObj is one observed object in the Che-approximation model: its request
// rate per request-slot and its size in bytes.
type cheObj struct {
	lambda float64
	size   float64
}

// AdaptSizeConfig configures the baseline.
type AdaptSizeConfig struct {
	// Window is the re-tuning period in requests.
	Window int
	// Eval sizes the cache.
	Eval cache.EvalConfig
	// Seed drives the admission coin flips.
	Seed int64
}

// initialC is the size parameter c before the first re-tuning; each
// re-tuning picks c from the doubling grid 1 KB, 2 KB, …, 1 MB.
const (
	initialC = 64 << 10
	minC     = 1 << 10
	maxC     = 1 << 20
)

// NewAdaptSize builds the baseline.
func NewAdaptSize(cfg AdaptSizeConfig) (*AdaptSize, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("baselines: adaptsize window must be > 0")
	}
	// The expert thresholds are irrelevant once the admission override is
	// installed; use a permissive placeholder.
	h, err := newHierarchy(cfg.Eval, cache.Expert{Freq: 0, MaxSize: math.MaxInt64})
	if err != nil {
		return nil, err
	}
	as := &AdaptSize{
		hier:   h,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		c:      initialC,
		counts: make(map[uint64]int),
		osize:  make(map[uint64]int64),
	}
	h.SetAdmission(func(_ int, size int64, _ int64) bool {
		return as.rng.Float64() < math.Exp(-float64(size)/as.c)
	})
	// AdaptSize decides admission for every requested object, including on
	// the miss path after an origin fetch — this is how objects with low
	// popularity can pollute its HOC (§3.2.1).
	h.SetAdmitOnMiss(true)
	return as, nil
}

// Name implements Server.
func (as *AdaptSize) Name() string { return "adaptsize" }

// Serve implements Server.
func (as *AdaptSize) Serve(r trace.Request) cache.Result {
	res := as.hier.Serve(r)
	as.counts[r.ID]++
	as.osize[r.ID] = r.Size
	as.n++
	if as.n >= as.cfg.Window {
		as.retune()
	}
	return res
}

// retune picks the candidate c maximising the Che-approximation OHR model
// over the window's observed objects. The model sums floats over them, so
// they are taken in id order: map order would make the sums, and through the
// bisection the chosen c, differ between runs.
func (as *AdaptSize) retune() {
	ids := make([]uint64, 0, len(as.counts))
	for id := range as.counts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	objs := make([]cheObj, len(ids))
	total := float64(as.n)
	for i, id := range ids {
		objs[i] = cheObj{lambda: float64(as.counts[id]) / total, size: float64(as.osize[id])}
	}
	bestC, bestOHR := as.c, -1.0
	for cand := float64(minC); cand <= maxC; cand *= 2 {
		ohr := modelOHR(objs, cand, float64(as.cfg.Eval.HOCBytes))
		if ohr > bestOHR {
			bestC, bestOHR = cand, ohr
		}
	}
	as.c = bestC
	as.n = 0
	as.counts = make(map[uint64]int)
	as.osize = make(map[uint64]int64)
}

// modelOHR evaluates the Che-approximation hit rate for admission parameter
// c: each object is admitted with probability p_i = e^(−size_i/c) and, once
// admitted, is resident with probability 1 − e^(−λ_i·T), where the
// characteristic time T (in request slots) solves the capacity constraint
// Σ_i size_i · p_i · (1 − e^(−λ_i·T)) = cacheBytes.
func modelOHR(objs []cheObj, c, cacheBytes float64) float64 {
	if len(objs) == 0 {
		return 0
	}
	occupancy := func(T float64) float64 {
		var occ float64
		for _, o := range objs {
			p := math.Exp(-o.size / c)
			occ += o.size * p * (1 - math.Exp(-o.lambda*T))
		}
		return occ
	}
	// If even T→∞ does not fill the cache, every admitted object is resident.
	const tMax = 1e12
	if occupancy(tMax) <= cacheBytes {
		return hitRate(objs, c, tMax)
	}
	lo, hi := 0.0, tMax
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		if occupancy(mid) > cacheBytes {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hitRate(objs, c, lo)
}

func hitRate(objs []cheObj, c, T float64) float64 {
	var hit, total float64
	for _, o := range objs {
		p := math.Exp(-o.size / c)
		hit += o.lambda * p * (1 - math.Exp(-o.lambda*T))
		total += o.lambda
	}
	if total == 0 {
		return 0
	}
	return hit / total
}

// C returns the current size parameter (for tests).
func (as *AdaptSize) C() float64 { return as.c }

// Metrics implements Server.
func (as *AdaptSize) Metrics() cache.Metrics { return as.hier.Metrics() }

// ResetMetrics implements Server.
func (as *AdaptSize) ResetMetrics() { as.hier.ResetMetrics() }
