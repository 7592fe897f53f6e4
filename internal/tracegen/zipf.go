package tracegen

import (
	"math"
	"math/rand"
)

// zipf draws the ranks rand.Zipf draws: from the same *rand.Rand it
// consumes the same Float64 values and returns the same ranks, draw for
// draw, so traces generated before it stay byte-identical. rand.Zipf pays one
// Log and one Exp per draw (hinv), and a second pair when its quick
// acceptance test fails. zipf answers most draws of the ranks a trace
// actually visits from a table instead, and runs rand.Zipf's own step
// (Hörmann & Derflinger's rejection-inversion) on every other draw.
//
// Rejection-inversion maps a uniform r to ur = hxm + r·hx0minusHxm and takes
// k = floor(hinv(ur)+0.5). Rank k owns the ur interval [lo[k], lo[k+1]) with
// lo[k] = h(k-0.5), and the step accepts k outright when ur ≥ acc[k] =
// h(k+0.5) - (k+v)^-q (its second test; the first is a cheaper squeeze that
// only matters below acc[k]). The table holds lo and acc; acc is computed
// with rand.Zipf's own expression, so it is bit-equal to the threshold the
// step compares against. A draw is answered from it only when ur lies more
// than margin inside [lo[k], lo[k+1]) and ur ≥ acc[k]: hinv's rounding error
// is a few ulps of |ur|, far below margin, so floor(hinv(ur)+0.5) is k there
// and the step would accept k on its second test.
type zipf struct {
	rng *rand.Rand
	// rand.Zipf's fields, computed as NewZipf computes them.
	v, q, s                 float64
	oneminusQ, oneminusQinv float64
	hxm, hx0minusHxm        float64
	margin                  float64
	lo, acc                 []float64 // len tabled+2 and tabled+1; see newZipf
	guide                   []int32   // bucket → rank, or ^(first rank to search)
	guideBase, guideScale   float64   // bucket of ur is int((ur-guideBase)·guideScale)
}

// zipfMargin is the relative distance, in units of the largest |ur|, that a
// draw must keep from its rank's bounds to be answered from the table.
// hinv's error is about 1e-15 of |ur|; the margin leaves six decades.
const zipfMargin = 1e-9

// guidePerRank is the number of guide buckets per tabled rank. With four,
// 82% of the draws of Image's table for a 375k-draw share land in a bucket
// inside one rank's accepted range and take a single load (77% with two);
// the rest search their bucket's ranks or take the step.
const guidePerRank = 4

// newZipf returns a sampler of the distribution rand.NewZipf(rng, s, v,
// imax) draws from (s > 1, v >= 1, as there). draws is the number of draws
// the caller expects to make: the table covers the ranks whose expected
// count over that many draws is at least one, so a short trace builds a short
// table and draws <= 0 builds none.
func newZipf(rng *rand.Rand, s, v float64, imax uint64, draws float64) *zipf {
	z := &zipf{rng: rng, v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(float64(imax) + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))

	// ur never falls below urMin (r < 1 and rounding is monotone), and every
	// ur is negative, so |urMin| bounds |ur|.
	urMin := z.hxm + 1.0*z.hx0minusHxm
	z.margin = zipfMargin * -urMin

	// Rank k is drawn with probability about (v+k)^-q / |hx0minusHxm|, so
	// the ranks expected at least once are those with
	// (v+k)^q <= draws/|hx0minusHxm|.
	reach := math.Pow(draws/-z.hx0minusHxm, 1/z.q) - z.v
	if !(reach >= 0) {
		return z
	}
	n := int(min(reach, float64(imax), 1<<30)) + 1
	// The guide's buckets split [urMin, h(n-0.5)) evenly; at parameters so
	// extreme that the range rounds to nothing, every draw takes the step.
	width := (z.h(float64(n)-0.5) - urMin) / float64(guidePerRank*n)
	if !(width > 0 && 1/width < math.Inf(1)) {
		return z
	}
	// lo[n+1] and acc[n] are sentinels: a search that runs past the last
	// tabled rank stops at n and fails acc[n], taking the exact step.
	z.lo = make([]float64, n+2)
	z.acc = make([]float64, n+1)
	// acc[k] is the step's threshold, expression for expression; lo[k+1]
	// is h(k+0.5) to within a rounding or two, far inside margin.
	z.lo[0] = z.h(-0.5)
	for k := 0; k < n; k++ {
		fk := float64(k)
		p := math.Exp(-math.Log(fk+z.v) * z.q)
		z.acc[k] = z.h(fk+0.5) - p
		z.lo[k+1] = z.acc[k] + p
	}
	z.lo[n+1] = math.Inf(1)
	z.acc[n] = math.Inf(1)

	// Bucket b is clean when all of it, widened by margin for the rounding
	// of b itself, lies inside the accepted part of one rank.
	z.guide = make([]int32, guidePerRank*n)
	z.guideBase = urMin
	z.guideScale = 1 / width
	k := 0
	for b := range z.guide {
		bl := urMin + float64(b)*width
		bh := bl + width
		for k < n && z.lo[k+1] <= bl-z.margin {
			k++
		}
		if k < n && bl-z.margin >= max(z.lo[k]+z.margin, z.acc[k]) && bh+z.margin <= z.lo[k+1]-z.margin {
			z.guide[b] = int32(k)
		} else {
			z.guide[b] = ^int32(k)
		}
	}
	return z
}

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Uint64 returns the next rank, the value rand.Zipf's Uint64 would return
// on the same rng.
func (z *zipf) Uint64() uint64 {
	for {
		r := z.rng.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		if b := int((ur - z.guideBase) * z.guideScale); uint(b) < uint(len(z.guide)) {
			g := z.guide[b]
			if g >= 0 {
				return uint64(g)
			}
			k := int(^g)
			for ur >= z.lo[k+1] {
				k++
			}
			if ur-z.lo[k] > z.margin && z.lo[k+1]-ur > z.margin && ur >= z.acc[k] {
				return uint64(k)
			}
		}
		// rand.Zipf's step, on the same ur.
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}
