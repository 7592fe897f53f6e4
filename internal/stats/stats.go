// Package stats provides small numeric helpers shared across the Darwin
// reproduction: means, z-scores, percentiles, CDF construction, histograms,
// and a Fenwick (binary indexed) tree used by the stack-distance extractor.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanStd returns the per-column mean and population standard deviation of
// the first dim entries of every row (there must be at least one row). A
// constant column's std is 1, so standardising it gives 0. Sums run over
// the rows in order, so the moments, and a model trained on them, are
// bit-reproducible.
func MeanStd(rows [][]float64, dim int) (mean, std []float64) {
	mean = make([]float64, dim)
	std = make([]float64, dim)
	for _, r := range rows {
		for j, v := range r[:dim] {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(rows))
	}
	for _, r := range rows {
		for j, v := range r[:dim] {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(rows)))
		if std[j] == 0 {
			std[j] = 1
		}
	}
	return mean, std
}

// Standardize returns the z-scores (x[j] − mean[j]) / std[j] of x's first
// len(mean) entries; x may be longer, and the rest is dropped.
func Standardize(x, mean, std []float64) []float64 {
	out := make([]float64, len(mean))
	for j := range out {
		out[j] = (x[j] - mean[j]) / std[j]
	}
	return out
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies and sorts its input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for an already ascending-sorted slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64 // fraction of samples <= Value
}

// CDF builds an empirical CDF from samples, deduplicating equal values.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	out := make([]CDFPoint, 0, len(sorted))
	for i, v := range sorted {
		if i+1 < len(sorted) && sorted[i+1] == v {
			continue // keep only the last (highest-fraction) point per value
		}
		out = append(out, CDFPoint{Value: v, Fraction: float64(i+1) / n})
	}
	return out
}

// Histogram is a fixed-bucket histogram over [Min, Max) with uniform buckets;
// samples outside the range are clamped into the first/last bucket.
type Histogram struct {
	Min, Max float64
	Counts   []uint64
	total    uint64
}

// NewHistogram allocates a histogram with n uniform buckets spanning
// [min, max). It panics if n <= 0 or max <= min.
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) n=%d", min, max, n))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint64, n)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// Fractions returns per-bucket fractions of the total (all zeros when empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// Fenwick is a binary indexed tree over int64 values supporting point update
// and prefix-sum query in O(log n). Index range is [0, n).
type Fenwick struct {
	tree []int64
}

// NewFenwick returns a Fenwick tree with n zero-initialized slots.
func NewFenwick(n int) *Fenwick {
	return &Fenwick{tree: make([]int64, n+1)}
}

// Len returns the number of addressable slots.
func (f *Fenwick) Len() int { return len(f.tree) - 1 }

// Add adds delta to slot i.
func (f *Fenwick) Add(i int, delta int64) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// PrefixSum returns the sum of slots [0, i].
func (f *Fenwick) PrefixSum(i int) int64 {
	var sum int64
	if i >= f.Len() {
		i = f.Len() - 1
	}
	for i++; i > 0; i -= i & (-i) {
		sum += f.tree[i]
	}
	return sum
}

// RangeSum returns the sum of slots [lo, hi]. It returns 0 when lo > hi.
func (f *Fenwick) RangeSum(lo, hi int) int64 {
	if lo > hi {
		return 0
	}
	if lo <= 0 {
		return f.PrefixSum(hi)
	}
	return f.PrefixSum(hi) - f.PrefixSum(lo-1)
}
