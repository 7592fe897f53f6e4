package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty input must yield 0")
	}
}

func TestStandardize(t *testing.T) {
	got := Standardize([]float64{10, 20}, []float64{10, 10}, []float64{1, 5})
	if got[0] != 0 || math.Abs(got[1]-2) > 1e-12 {
		t.Fatalf("Standardize = %v", got)
	}
	// Column 0 is {1, 3}: mean 2, std 1. Column 1 is constant: its std is 1,
	// so its z-scores are 0. Column 2 is past dim and ignored.
	mean, std := MeanStd([][]float64{{1, 7, 100}, {3, 7, -100}}, 2)
	if len(mean) != 2 || mean[0] != 2 || mean[1] != 7 || std[0] != 1 || std[1] != 1 {
		t.Fatalf("MeanStd = %v, %v", mean, std)
	}
	if z := Standardize([]float64{3, 7, 100}, mean, std); len(z) != 2 || z[0] != 1 || z[1] != 0 {
		t.Fatalf("Standardize = %v", z)
	}
	// A single row: every column is constant.
	mean, std = MeanStd([][]float64{{4, -2}}, 2)
	if mean[0] != 4 || mean[1] != -2 || std[0] != 1 || std[1] != 1 {
		t.Fatalf("single-row MeanStd = %v, %v", mean, std)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {-5, 15}, {110, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Fatalf("Percentile(50) = %v, want 5", got)
	}
	if got := Percentile(xs, 75); got != 7.5 {
		t.Fatalf("Percentile(75) = %v, want 7.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{1, 2, 2, 3})
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1}}
	if len(pts) != len(want) {
		t.Fatalf("CDF has %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("CDF[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
	if CDF(nil) != nil {
		t.Fatal("CDF(nil) should be nil")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []int16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		pts := CDF(xs)
		prevV := math.Inf(-1)
		prevF := 0.0
		for _, p := range pts {
			if p.Value <= prevV || p.Fraction < prevF {
				return false
			}
			prevV, prevF = p.Value, p.Fraction
		}
		return len(pts) == 0 || pts[len(pts)-1].Fraction == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 9.99, 10, 100, -3} {
		h.Add(x)
	}
	if h.total != 7 {
		t.Fatalf("total = %d", h.total)
	}
	// buckets: [0,2) [2,4) [4,6) [6,8) [8,10)
	want := []uint64{3, 1, 0, 0, 3}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	fr := h.Fractions()
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid histogram")
		}
	}()
	NewHistogram(1, 1, 4)
}

func TestFenwickBasic(t *testing.T) {
	f := NewFenwick(10)
	f.Add(0, 5)
	f.Add(3, 7)
	f.Add(9, 2)
	if got := f.PrefixSum(0); got != 5 {
		t.Fatalf("PrefixSum(0) = %d", got)
	}
	if got := f.PrefixSum(3); got != 12 {
		t.Fatalf("PrefixSum(3) = %d", got)
	}
	if got := f.PrefixSum(9); got != 14 {
		t.Fatalf("PrefixSum(9) = %d", got)
	}
	if got := f.RangeSum(1, 3); got != 7 {
		t.Fatalf("RangeSum(1,3) = %d", got)
	}
	if got := f.RangeSum(4, 2); got != 0 {
		t.Fatalf("RangeSum(4,2) = %d", got)
	}
	f.Add(3, -7)
	if got := f.PrefixSum(9); got != 7 {
		t.Fatalf("after removal PrefixSum(9) = %d", got)
	}
}

func TestFenwickAgainstNaive(t *testing.T) {
	const n = 64
	f := NewFenwick(n)
	naive := make([]int64, n)
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 2000; step++ {
		i := rng.Intn(n)
		d := int64(rng.Intn(21) - 10)
		f.Add(i, d)
		naive[i] += d
		lo, hi := rng.Intn(n), rng.Intn(n)
		if lo > hi {
			lo, hi = hi, lo
		}
		var want int64
		for j := lo; j <= hi; j++ {
			want += naive[j]
		}
		if got := f.RangeSum(lo, hi); got != want {
			t.Fatalf("step %d RangeSum(%d,%d) = %d, want %d", step, lo, hi, got, want)
		}
	}
}

func TestFenwickPrefixBeyondLen(t *testing.T) {
	f := NewFenwick(4)
	f.Add(3, 9)
	if got := f.PrefixSum(100); got != 9 {
		t.Fatalf("PrefixSum beyond len = %d, want 9", got)
	}
}
