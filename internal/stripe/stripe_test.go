package stripe

import (
	"sync"
	"testing"
)

// hammerPairs runs one writer per key, each bumping counter 0 then counter 1
// under its key, while the caller's goroutine polls Snapshot. Every stripe
// is read at one instant, so in any aggregate counter 0 leads counter 1 by
// at most the writers that are between their two Adds — never negative,
// never more than the writer count — and the final totals are exact.
func hammerPairs(t *testing.T, keys []uint64) {
	t.Helper()
	const iters = 5_000
	writers := int64(len(keys))
	c := New(16, 2)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, key := range keys {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(key, 0, 1)
				c.Add(key, 1, 1)
			}
		}(key)
	}
	go func() { wg.Wait(); close(done) }()
	buf := make([]int64, 2)
	for {
		c.Snapshot(buf)
		if lead := buf[0] - buf[1]; lead < 0 || lead > writers {
			t.Fatalf("torn snapshot: counter 0 leads counter 1 by %d (vals %v), want 0..%d", lead, buf, writers)
		}
		select {
		case <-done:
			c.Snapshot(buf)
			if buf[0] != writers*iters || buf[1] != writers*iters {
				t.Fatalf("totals = %v, want %d each", buf, writers*iters)
			}
			return
		default:
		}
	}
}

// TestCountersTotalsAndOrdering spreads the writers over distinct keys, so
// the aggregate is a sum of stripes read at different instants.
func TestCountersTotalsAndOrdering(t *testing.T) {
	keys := make([]uint64, 8)
	for w := range keys {
		keys[w] = uint64(w) * 7919
	}
	hammerPairs(t, keys)
}

// TestCountersSameKeyNeverTorn has every writer share one key — one stripe,
// one mutex — so the two counters are read in one critical section.
func TestCountersSameKeyNeverTorn(t *testing.T) {
	hammerPairs(t, []uint64{42, 42, 42, 42})
}

func TestNewRoundsStripesUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {16, 16}, {17, 32}} {
		c := New(tc.in, 1)
		if len(c.stripes) != tc.want {
			t.Errorf("New(%d): %d stripes, want %d", tc.in, len(c.stripes), tc.want)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Distinct small ids must spread across shards rather than collapse.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[h] = true
	}
	if Mix64(0) == 0 && Mix64(1) == 1 {
		t.Fatal("Mix64 looks like identity")
	}
}
