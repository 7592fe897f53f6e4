package cache_test

import (
	"reflect"
	"sync"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/tracegen"
)

// TestShardedOneShardBitIdentical pins the core equivalence contract of the
// Engine seam: a Sharded engine with one shard must reproduce the serial
// Hierarchy bit-for-bit — every per-request Result and every Metrics counter
// — across the full Fig 2 expert grid, including a mid-trace warmup
// ResetMetrics on both arms.
func TestShardedOneShardBitIdentical(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(60, 30_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	warmup := len(tr.Requests) / 5
	for _, e := range cache.DefaultGrid() {
		cfg := cache.Config{
			HOCBytes:    64 << 10,
			DCBytes:     1 << 20,
			Expert:      e,
			HOCEviction: "lru",
		}
		serial, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := cache.NewSharded(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range tr.Requests {
			if i == warmup {
				serial.ResetMetrics()
				sharded.ResetMetrics()
			}
			got, want := sharded.Serve(r), serial.Serve(r)
			if got != want {
				t.Fatalf("expert %v req %d: sharded result %+v, serial %+v", e, i, got, want)
			}
		}
		if got, want := sharded.Metrics(), serial.Metrics(); got != want {
			t.Fatalf("expert %v: sharded metrics %+v, serial %+v", e, got, want)
		}
		if got, want := sharded.ExpertSwitches(), serial.ExpertSwitches(); got != want {
			t.Fatalf("expert %v: sharded switches %d, serial %d", e, got, want)
		}
		if got, want := sharded.State().Shards[0], serial.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("expert %v: state diverged", e)
		}
	}
}

// TestShardedAggregates checks that with n > 1 shards the aggregate equals
// the sum of the per-shard snapshots, every request lands on exactly one
// shard, and expert broadcasts reach all shards.
func TestShardedAggregates(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 20_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	s, err := cache.NewSharded(cache.Config{HOCBytes: 64 << 10, DCBytes: 1 << 20}, n)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != n || !s.Concurrent() {
		t.Fatalf("Shards()=%d Concurrent()=%v", s.Shards(), s.Concurrent())
	}
	for _, r := range tr.Requests {
		s.Serve(r)
	}
	var sum cache.Metrics
	for i := 0; i < n; i++ {
		m := s.ShardMetrics(i)
		if m.Requests == 0 {
			t.Errorf("shard %d saw no traffic", i)
		}
		sum.Requests += m.Requests
		sum.Bytes += m.Bytes
		sum.HOCHits += m.HOCHits
		sum.HOCHitBytes += m.HOCHitBytes
		sum.DCHits += m.DCHits
		sum.DCHitBytes += m.DCHitBytes
		sum.Misses += m.Misses
		sum.MissBytes += m.MissBytes
		sum.DCWrites += m.DCWrites
		sum.DCWriteBytes += m.DCWriteBytes
		sum.HOCAdmits += m.HOCAdmits
	}
	if got := s.Metrics(); got != sum {
		t.Fatalf("aggregate %+v != shard sum %+v", got, sum)
	}
	if got := s.Metrics().Requests; got != int64(len(tr.Requests)) {
		t.Fatalf("aggregate requests %d, want %d", got, len(tr.Requests))
	}
	e := cache.Expert{Freq: 3, MaxSize: 1 << 14}
	s.SetExpert(e)
	if got := s.Expert(); got != e {
		t.Fatalf("Expert() = %+v after broadcast, want %+v", got, e)
	}
	if got := s.ExpertSwitches(); got != 1 {
		t.Fatalf("ExpertSwitches() = %d, want 1", got)
	}
	s.ResetMetrics()
	if got := s.Metrics(); got != (cache.Metrics{}) {
		t.Fatalf("metrics after reset: %+v", got)
	}
}

// TestShardedConcurrent hammers a multi-shard engine from many goroutines
// (Serve + Lookup) while readers poll Metrics and the control plane
// broadcasts SetExpert — run under -race this is the data-plane safety
// proof, and the final aggregate must still account for every request.
func TestShardedConcurrent(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(40, 24_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cache.NewSharded(cache.Config{HOCBytes: 64 << 10, DCBytes: 1 << 20}, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tr.Requests); i += workers {
				r := tr.Requests[i]
				s.Serve(r)
				s.Lookup(r.ID)
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		experts := cache.DefaultGrid()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := s.Metrics()
			if hits := m.HOCHits + m.DCHits; hits+m.Misses != m.Requests {
				panic("torn aggregate: hits+misses != requests")
			}
			if i%64 == 0 {
				s.SetExpert(experts[i/64%len(experts)])
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := s.Metrics().Requests; got != int64(len(tr.Requests)) {
		t.Fatalf("requests %d, want %d", got, len(tr.Requests))
	}
}

// TestNewShardedRejects covers the constructor guard rails.
func TestNewShardedRejects(t *testing.T) {
	if _, err := cache.NewSharded(cache.Config{HOCBytes: 4, DCBytes: 1 << 20}, 8); err == nil {
		t.Error("want error for capacity smaller than shard count")
	}
	s, err := cache.NewSharded(cache.Config{HOCBytes: 1 << 20, DCBytes: 1 << 20}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 1 {
		t.Errorf("shards<=0 should clamp to 1, got %d", s.Shards())
	}
}

func TestMix64Bijective(t *testing.T) {
	// Distinct small ids must spread across shards rather than collapse.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		h := cache.Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[h] = true
	}
	if cache.Mix64(0) == 0 && cache.Mix64(1) == 1 {
		t.Fatal("Mix64 looks like identity")
	}
}
