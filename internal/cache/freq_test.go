package cache

import (
	"testing"

	"darwin/internal/tracegen"
)

func TestExactTracker(t *testing.T) {
	tr := NewExactTracker()
	c, age := tr.Observe(1, 0)
	if c != 1 || age != -1 {
		t.Fatalf("first observe = (%d,%d)", c, age)
	}
	c, age = tr.Observe(1, 5)
	if c != 2 || age != 5 {
		t.Fatalf("second observe = (%d,%d)", c, age)
	}
	c, age = tr.Observe(1, 7)
	if c != 3 || age != 2 {
		t.Fatalf("third observe = (%d,%d)", c, age)
	}
	if tr.Count(1) != 3 || tr.Count(2) != 0 {
		t.Fatal("Count wrong")
	}
	tr.Reset()
	if c, age := tr.Observe(1, 10); c != 1 || age != -1 {
		t.Fatalf("after reset observe = (%d,%d)", c, age)
	}
}

func TestApproxTrackerUpperBounds(t *testing.T) {
	tr := NewApproxTracker(10000)
	for i := 0; i < 5; i++ {
		tr.Observe(42, int64(i))
	}
	c, age := tr.Observe(42, 9)
	if c < 6 {
		t.Fatalf("approx count %d below true count 6", c)
	}
	if age != 5 {
		t.Fatalf("age = %d, want 5", age)
	}
	tr.Reset()
	if c, _ := tr.Observe(42, 0); c != 1 {
		t.Fatalf("after reset count = %d", c)
	}
}

func TestApproxTrackerBoundedLastSeen(t *testing.T) {
	tr := NewApproxTracker(16)
	for i := 0; i < 1000; i++ {
		tr.Observe(uint64(i), int64(i))
	}
	if n := len(tr.lastSeen); n > 17 {
		t.Fatalf("lastSeen grew to %d entries, bound is ~16", n)
	}
}

// BenchmarkTracker prices one Observe on the 50:50 mix for the exact
// (simulator default) and the Bloom-backed approximate tracker.
func BenchmarkTracker(b *testing.B) {
	tr, err := tracegen.ImageDownloadMix(50, 100_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	reqs := tr.Requests
	for _, arm := range []struct {
		name    string
		tracker FrequencyTracker
	}{
		{"exact", NewExactTracker()},
		{"approx", NewApproxTracker(1 << 16)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arm.tracker.Observe(reqs[i%len(reqs)].ID, int64(i))
			}
		})
	}
}
