// Package tracegen synthesises CDN request traces in the style of Tragen
// (Sabnis & Sitaraman, IMC'21), the generator the Darwin paper uses to build
// its offline training and online test sets. A traffic class is modelled by a
// Zipf popularity distribution over a fixed object catalog, a log-normal
// object-size distribution, and a Poisson arrival process; mixed traces
// interleave two or more classes at a configurable request-rate ratio,
// mirroring the paper's 100 Image:Download mix configurations (§6).
//
// The generator is fully deterministic for a given seed.
package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"darwin/internal/trace"
)

// Class describes one traffic class (e.g. Image, Download).
type Class struct {
	// Name labels the class in trace names and reports.
	Name string
	// Objects is the catalog size (number of distinct objects). Generation
	// keeps 8 bytes per catalog object (16 once the class has churned), plus
	// 32 bytes of sampler table per rank the trace expects to draw at least
	// once (at most the catalog, and about 16k ranks of Image in a
	// 375k-request share).
	Objects int
	// ZipfS and ZipfV parameterise the popularity distribution
	// P(rank k) ∝ (ZipfV + k)^(-ZipfS); ZipfS must be > 1, ZipfV >= 1.
	ZipfS, ZipfV float64
	// MeanLogSize and SigmaLogSize parameterise the log-normal object size
	// distribution (of the natural log of the size in bytes).
	MeanLogSize, SigmaLogSize float64
	// MinSize and MaxSize clamp object sizes in bytes.
	MinSize, MaxSize int64
	// RatePerSec is the class request rate used when mixing classes and for
	// Poisson arrival timestamps.
	RatePerSec float64
	// ChurnRate is the expected number of popularity-rank swaps per request
	// (0 = stationary popularity). Production CDN popularity is
	// non-stationary — content ages and new content becomes hot — and this
	// knob slowly migrates the Zipf ranks across the catalog to model it.
	ChurnRate float64
}

// Validate reports whether the class parameters are usable.
func (c Class) Validate() error {
	switch {
	case c.Objects <= 0:
		return fmt.Errorf("tracegen: class %s: Objects must be > 0", c.Name)
	case !finite(c.ZipfS) || c.ZipfS <= 1:
		return fmt.Errorf("tracegen: class %s: ZipfS must be finite and > 1", c.Name)
	case !finite(c.ZipfV) || c.ZipfV < 1:
		return fmt.Errorf("tracegen: class %s: ZipfV must be finite and >= 1", c.Name)
	case !finite(c.MeanLogSize) || !finite(c.SigmaLogSize):
		return fmt.Errorf("tracegen: class %s: size parameters must be finite", c.Name)
	case c.MinSize < 1 || c.MaxSize < c.MinSize:
		return fmt.Errorf("tracegen: class %s: bad size bounds [%d,%d]", c.Name, c.MinSize, c.MaxSize)
	case !finite(c.RatePerSec) || c.RatePerSec <= 0:
		return fmt.Errorf("tracegen: class %s: RatePerSec must be finite and > 0", c.Name)
	case !finite(c.ChurnRate) || c.ChurnRate < 0:
		return fmt.Errorf("tracegen: class %s: ChurnRate must be finite and >= 0", c.Name)
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// The predefined classes are scaled ~10x down from the paper's production
// numbers (DESIGN.md §5) so that the default 2 MB HOC plays the role of the
// paper's 100 MB HOC.

// Image returns a class modelled on the paper's Image traffic: a large
// catalog of small objects with many one-/two-hit wonders ("many requests for
// infrequently accessed objects and 71.9% of the requests are for objects
// whose sizes are smaller than 20KB", §3.1 — scaled here to ~2 KB).
func Image() Class {
	return Class{
		Name:         "image",
		Objects:      60000,
		ZipfS:        1.25,
		ZipfV:        10,
		MeanLogSize:  math.Log(900), // median ~0.9 KB
		SigmaLogSize: 0.9,
		MinSize:      64,
		MaxSize:      64 << 10,
		RatePerSec:   160,
	}
}

// Download returns a class modelled on the paper's Download traffic: a small
// catalog of popular, large objects ("objects all have more than 7 requests
// ... only 21.5% of the requests are for objects below 50KB", §3.1 — scaled
// to ~5 KB).
func Download() Class {
	return Class{
		Name:         "download",
		Objects:      900,
		ZipfS:        1.4,
		ZipfV:        3,
		MeanLogSize:  math.Log(24 << 10), // median ~24 KB
		SigmaLogSize: 1.0,
		MinSize:      2 << 10,
		MaxSize:      1 << 20,
		RatePerSec:   106,
	}
}

// Web returns a mixed text/page class between Image and Download in both
// popularity skew and size.
func Web() Class {
	return Class{
		Name:         "web",
		Objects:      20000,
		ZipfS:        1.35,
		ZipfV:        5,
		MeanLogSize:  math.Log(3 << 10),
		SigmaLogSize: 1.1,
		MinSize:      128,
		MaxSize:      256 << 10,
		RatePerSec:   120,
	}
}

// Video returns a media-segment class: moderately popular, mid-size objects
// with low size variance (fixed-duration segments).
func Video() Class {
	return Class{
		Name:         "video",
		Objects:      8000,
		ZipfS:        1.3,
		ZipfV:        4,
		MeanLogSize:  math.Log(48 << 10),
		SigmaLogSize: 0.4,
		MinSize:      8 << 10,
		MaxSize:      512 << 10,
		RatePerSec:   90,
	}
}

// Scan returns a cache-scan class: a one-pass sweep of cold objects (every
// object requested about once), the adversarial pattern cited in §3.2.1
// against size-only admission.
func Scan() Class {
	return Class{
		Name:         "scan",
		Objects:      200000,
		ZipfS:        1.01, // nearly uniform
		ZipfV:        100,
		MeanLogSize:  math.Log(2 << 10),
		SigmaLogSize: 0.7,
		MinSize:      256,
		MaxSize:      128 << 10,
		RatePerSec:   150,
	}
}

// classState holds the per-class sampling state during generation.
type classState struct {
	class Class
	zipf  *zipf
	// sizes[o] is object o's size, drawn on its first request; 0 means not
	// drawn yet (sizes are at least MinSize >= 1).
	sizes []int64
	base  uint64 // ID namespace offset
	rng   *rand.Rand
	// perm maps popularity rank → object index. It is nil (the identity)
	// until the first churn, which materialises it; churn swaps entries so
	// popularity migrates across the catalog over time.
	perm []uint64
}

// newClassState seeds class index's generator; draws is the number of Zipf
// draws it is expected to make, which sizes the sampler's table.
func newClassState(c Class, index int, seed int64, draws float64) *classState {
	rng := rand.New(rand.NewSource(seed + int64(index)*7919))
	return &classState{
		class: c,
		zipf:  newZipf(rng, c.ZipfS, c.ZipfV, uint64(c.Objects-1), draws),
		sizes: make([]int64, c.Objects),
		base:  uint64(index) << 40,
		rng:   rng,
	}
}

// object resolves a popularity rank to an object index through the churned
// permutation.
func (s *classState) object(rank uint64) uint64 {
	if s.perm == nil {
		return rank
	}
	return s.perm[rank]
}

// churn performs one popularity swap between a (likely hot) Zipf-drawn rank
// and a uniformly random rank.
func (s *classState) churn() {
	a := s.zipf.Uint64()
	b := uint64(s.rng.Intn(s.class.Objects))
	if s.perm == nil {
		s.perm = make([]uint64, s.class.Objects)
		for i := range s.perm {
			s.perm[i] = uint64(i)
		}
	}
	s.perm[a], s.perm[b] = s.perm[b], s.perm[a]
}

// next draws one request's object ID and size from the class.
func (s *classState) next() (id uint64, size int64) {
	if s.class.ChurnRate > 0 {
		n := int(s.class.ChurnRate)
		if s.rng.Float64() < s.class.ChurnRate-float64(n) {
			n++
		}
		for i := 0; i < n; i++ {
			s.churn()
		}
	}
	o := s.object(s.zipf.Uint64())
	size = s.sizes[o]
	if size == 0 {
		size = sampleLogNormal(s.rng, s.class.MeanLogSize, s.class.SigmaLogSize, s.class.MinSize, s.class.MaxSize)
		s.sizes[o] = size
	}
	return s.base + o, size
}

func sampleLogNormal(rng *rand.Rand, mu, sigma float64, min, max int64) int64 {
	v := int64(math.Exp(mu + sigma*rng.NormFloat64()))
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// MixConfig configures a mixed-class trace.
type MixConfig struct {
	// Classes to interleave, at most 256.
	Classes []Class
	// Weights give each class's share of the total request rate. They must
	// be finite and non-negative, and are normalised internally; a
	// zero-weight class is never drawn. If nil, the classes' RatePerSec
	// values are used.
	Weights []float64
	// Requests is the total trace length.
	Requests int
	// Seed makes generation deterministic.
	Seed int64
	// Name overrides the generated trace name.
	Name string
}

// maxClasses is the most classes one mix may hold: Generate tags each
// request with its class index in a byte.
const maxClasses = 256

// chunk is the number of requests the mixer hands to the class workers at a
// time.
const chunk = 1 << 12

// Generate produces a mixed trace: each request's class is drawn according to
// the weights, and timestamps follow a Poisson process at the summed request
// rate of the participating classes.
//
// The mixer (class choice and arrival times) and each class (object and
// size) draw from separate generators, so they run concurrently: the calling
// goroutine mixes, tagging every request with its class a chunk at a time,
// and one goroutine per participating class follows a chunk behind, filling
// in its requests in trace order. The result does not depend on scheduling.
func Generate(cfg MixConfig) (*trace.Trace, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("tracegen: Requests must be > 0, got %d", cfg.Requests)
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("tracegen: no classes")
	}
	if len(cfg.Classes) > maxClasses {
		return nil, fmt.Errorf("tracegen: %d classes, at most %d", len(cfg.Classes), maxClasses)
	}
	weights := cfg.Weights
	if weights == nil {
		weights = make([]float64, len(cfg.Classes))
		for i, c := range cfg.Classes {
			weights[i] = c.RatePerSec
		}
	}
	if len(weights) != len(cfg.Classes) {
		return nil, fmt.Errorf("tracegen: %d weights for %d classes", len(weights), len(cfg.Classes))
	}
	var totalW, totalRate float64
	for i, c := range cfg.Classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if !finite(weights[i]) || weights[i] < 0 {
			return nil, fmt.Errorf("tracegen: weight %v, want finite and >= 0", weights[i])
		}
		totalW += weights[i]
		totalRate += c.RatePerSec * weights[i]
	}
	if totalW == 0 {
		return nil, fmt.Errorf("tracegen: all weights zero")
	}
	totalRate /= totalW

	// Cumulative weights of the participating classes, for class selection.
	// A zero-weight class adds nothing to the running sum, so these are the
	// cumulative weights over all classes, with the zero-weight ones left out.
	var active []uint8
	var cum []float64
	var acc float64
	for i, w := range weights {
		if w > 0 {
			acc += w / totalW
			active = append(active, uint8(i))
			cum = append(cum, acc)
		}
	}

	name := cfg.Name
	if name == "" {
		name = mixName(cfg.Classes, weights, cfg.Seed)
	}
	reqs := make([]trace.Request, cfg.Requests)
	// order holds, chunk by chunk, the offsets of the chunk's requests
	// grouped by class: a class worker is handed its own requests only.
	order := make([]uint16, cfg.Requests)
	type batch struct {
		part []trace.Request // one chunk of reqs
		offs []uint16        // the class's requests in part, in trace order
	}
	// Each class's channel holds every chunk, so the mixer never waits on a
	// worker.
	ready := make([]chan batch, len(active))
	chunks := (cfg.Requests + chunk - 1) / chunk
	var wg sync.WaitGroup
	for j, ci := range active {
		c := cfg.Classes[ci]
		draws := float64(cfg.Requests) * weights[ci] / totalW * (1 + c.ChurnRate)
		ready[j] = make(chan batch, chunks)
		wg.Add(1)
		go func(ch <-chan batch) {
			defer wg.Done()
			st := newClassState(c, int(ci), cfg.Seed, draws)
			for b := range ch {
				for _, off := range b.offs {
					r := &b.part[off]
					r.ID, r.Size = st.next()
				}
			}
		}(ready[j])
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var now float64 // microseconds
	usPerReq := 1e6 / totalRate
	var tags [chunk]uint8 // each request's index into active
	start := make([]int, len(active)+1)
	next := make([]int, len(active))
	for lo := 0; lo < len(reqs); lo += chunk {
		part := reqs[lo:min(lo+chunk, len(reqs))]
		for n := range part {
			// The first class whose cumulative weight reaches u, or the
			// last class if rounding left every one below it.
			u := rng.Float64()
			j := 0
			for _, c := range cum[:len(cum)-1] {
				if c < u {
					j++
				}
			}
			tags[n] = uint8(j)
			now += rng.ExpFloat64() * usPerReq
			part[n].Time = int64(now)
		}
		// Counting sort of the chunk's offsets by class.
		clear(start)
		for _, t := range tags[:len(part)] {
			start[int(t)+1]++
		}
		for j := range next {
			start[j+1] += start[j]
			next[j] = start[j]
		}
		offs := order[lo : lo+len(part)]
		for n, t := range tags[:len(part)] {
			offs[next[t]] = uint16(n)
			next[t]++
		}
		for j, ch := range ready {
			ch <- batch{part, offs[start[j]:start[j+1]]}
		}
	}
	for _, ch := range ready {
		close(ch)
	}
	wg.Wait()
	return &trace.Trace{Name: name, Requests: reqs}, nil
}

func mixName(classes []Class, weights []float64, seed int64) string {
	s := "mix"
	for i, c := range classes {
		s += fmt.Sprintf("-%s:%.0f", c.Name, weights[i])
	}
	return fmt.Sprintf("%s-seed%d", s, seed)
}

// ImageDownloadMix generates the paper's canonical two-class mix with the
// Image class receiving imagePct percent of requests and Download the rest.
func ImageDownloadMix(imagePct int, requests int, seed int64) (*trace.Trace, error) {
	if imagePct < 0 || imagePct > 100 {
		return nil, fmt.Errorf("tracegen: imagePct %d outside [0,100]", imagePct)
	}
	return Generate(MixConfig{
		Classes:  []Class{Image(), Download()},
		Weights:  []float64{float64(imagePct), float64(100 - imagePct)},
		Requests: requests,
		Seed:     seed,
		Name:     fmt.Sprintf("mix-image%d-download%d-seed%d", imagePct, 100-imagePct, seed),
	})
}
