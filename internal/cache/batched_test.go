package cache_test

import (
	"sync"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/tracegen"
)

// TestShardedBatchedPublicationCoherence hammers a 4-shard engine from
// concurrent writers while a reader polls Metrics and ShardMetrics, and
// asserts on every observed snapshot: each shard is read under the mutex
// its writer holds, so hits+misses == requests and the byte-sum identity
// can never be seen broken, and Requests never runs backwards. After the
// writers drain, a plain Metrics read must equal the number served exactly.
// (The name dates from a batched metrics mirror; kept so the suite's
// history stays comparable.)
func TestShardedBatchedPublicationCoherence(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 40_000, 13)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cache.NewSharded(cache.Config{HOCBytes: 64 << 10, DCBytes: 1 << 20}, 4)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	done := make(chan struct{})
	per := len(tr.Requests) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(reqs []int) {
			defer wg.Done()
			for _, i := range reqs {
				s.Serve(tr.Requests[i])
			}
		}(indexRange(w*per, (w+1)*per))
	}
	go func() { wg.Wait(); close(done) }()

	coherent := func(what string, m cache.Metrics) {
		t.Helper()
		if m.HOCHits+m.DCHits+m.Misses != m.Requests {
			t.Fatalf("torn %s: hits %d+%d + misses %d != requests %d",
				what, m.HOCHits, m.DCHits, m.Misses, m.Requests)
		}
		if m.HOCHitBytes+m.DCHitBytes+m.MissBytes != m.Bytes {
			t.Fatalf("torn %s bytes: %d+%d+%d != %d",
				what, m.HOCHitBytes, m.DCHitBytes, m.MissBytes, m.Bytes)
		}
	}
	var last int64
	for polls := 0; ; polls++ {
		m := s.Metrics()
		coherent("aggregate", m)
		if m.Requests < last {
			t.Fatalf("requests ran backwards: %d after %d", m.Requests, last)
		}
		last = m.Requests
		coherent("shard", s.ShardMetrics(polls%s.Shards()))
		select {
		case <-done:
			m := s.Metrics()
			coherent("final aggregate", m)
			if want := int64(workers * per); m.Requests != want {
				t.Fatalf("final read: %d requests, want %d", m.Requests, want)
			}
			if polls < 10 {
				t.Logf("only %d coherence polls overlapped the run", polls)
			}
			return
		default:
		}
	}
}

// indexRange returns [lo, hi) as a slice of ints.
func indexRange(lo, hi int) []int {
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return idx
}
