package cache

import (
	"fmt"
	"sort"
)

// Expert is a HOC admission policy parameterised by decision knobs (§4 of the
// paper): an object is promoted into the HOC when it has been requested more
// than Freq times (i.e. upon its (1+Freq)-th request, matching the paper's
// footnote on the DC's second-request rule), its size is at most MaxSize bytes, and — when the
// optional third recency knob is enabled — it was last requested at most
// MaxAge requests ago.
type Expert struct {
	// Freq is the frequency threshold f. Admit when observed request count
	// is strictly greater than Freq.
	Freq int
	// MaxSize is the size threshold s in bytes. Admit when size <= MaxSize.
	MaxSize int64
	// MaxAge is the optional recency threshold r, measured in requests since
	// the object's previous request. Zero disables the knob.
	MaxAge int64
}

// Admit reports whether an object with the given observed request count
// (including the current request), size, and age (requests since previous
// request of the same object; <0 when never seen) should enter the HOC.
func (e Expert) Admit(count int, size int64, age int64) bool {
	if count <= e.Freq {
		return false
	}
	if size > e.MaxSize {
		return false
	}
	if e.MaxAge > 0 && (age < 0 || age > e.MaxAge) {
		return false
	}
	return true
}

// String renders the expert as "f2s50k" (or "f2s50kr1000" with recency).
func (e Expert) String() string {
	s := fmt.Sprintf("f%ds%s", e.Freq, humanSize(e.MaxSize))
	if e.MaxAge > 0 {
		s += fmt.Sprintf("r%d", e.MaxAge)
	}
	return s
}

func humanSize(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dk", b>>10)
	default:
		return fmt.Sprintf("%d", b)
	}
}

// Grid builds the cross product of frequency and size thresholds, the
// paper's 36-expert static grid (f=2..7 × six size thresholds, §6
// "Baselines").
func Grid(freqs []int, sizes []int64) []Expert {
	out := make([]Expert, 0, len(freqs)*len(sizes))
	for _, f := range freqs {
		for _, s := range sizes {
			out = append(out, Expert{Freq: f, MaxSize: s})
		}
	}
	return out
}

// Grid3 builds a three-knob grid including recency thresholds (Appendix A.3,
// Figure 11).
func Grid3(freqs []int, sizes []int64, ages []int64) []Expert {
	out := make([]Expert, 0, len(freqs)*len(sizes)*len(ages))
	for _, f := range freqs {
		for _, s := range sizes {
			for _, a := range ages {
				out = append(out, Expert{Freq: f, MaxSize: s, MaxAge: a})
			}
		}
	}
	return out
}

// DefaultGrid returns the scaled 36-expert grid used across the reproduction
// (DESIGN.md §5): f ∈ 2..7, six size thresholds from 2 KB to 1 MB spanning
// both traffic classes' object sizes (the paper's grid spans 10 KB–1 MB over
// ~10x larger objects).
func DefaultGrid() []Expert {
	return Grid(
		[]int{2, 3, 4, 5, 6, 7},
		[]int64{2 << 10, 5 << 10, 10 << 10, 50 << 10, 200 << 10, 1 << 20},
	)
}

// Nearest returns the expert in experts whose (Freq, MaxSize) is closest to
// the requested thresholds — used by the Percentile baseline to map empirical
// percentiles onto the available expert grid. Distance is measured in rank
// space over the distinct knob values so that the very different scales of f
// and s don't dominate one another.
func Nearest(experts []Expert, freq float64, size float64) Expert {
	if len(experts) == 0 {
		return Expert{}
	}
	fr := distinctInts(experts)
	sr := distinctSizes(experts)
	frank := rankOf(fr, freq)
	srank := rankOfSizes(sr, size)
	best, bestD := experts[0], 1e18
	for _, e := range experts {
		df := rankOf(fr, float64(e.Freq)) - frank
		ds := rankOfSizes(sr, float64(e.MaxSize)) - srank
		d := df*df + ds*ds
		if d < bestD {
			bestD = d
			best = e
		}
	}
	return best
}

func distinctInts(experts []Expert) []float64 {
	seen := map[int]bool{}
	var out []float64
	for _, e := range experts {
		if !seen[e.Freq] {
			seen[e.Freq] = true
			out = append(out, float64(e.Freq))
		}
	}
	sort.Float64s(out)
	return out
}

func distinctSizes(experts []Expert) []float64 {
	seen := map[int64]bool{}
	var out []float64
	for _, e := range experts {
		if !seen[e.MaxSize] {
			seen[e.MaxSize] = true
			out = append(out, float64(e.MaxSize))
		}
	}
	sort.Float64s(out)
	return out
}

// rankOf returns the fractional rank of v among the sorted distinct values.
func rankOf(sorted []float64, v float64) float64 {
	for i, x := range sorted {
		if v <= x {
			return float64(i)
		}
	}
	return float64(len(sorted) - 1)
}

func rankOfSizes(sorted []float64, v float64) float64 { return rankOf(sorted, v) }
