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

// BenchmarkTracker prices one Observe on the 50:50 mix.
func BenchmarkTracker(b *testing.B) {
	tr, err := tracegen.ImageDownloadMix(50, 100_000, 7)
	if err != nil {
		b.Fatal(err)
	}
	reqs := tr.Requests
	tracker := NewExactTracker()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tracker.Observe(reqs[i%len(reqs)].ID, int64(i))
	}
}
