package cache_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"darwin/internal/cache"
	"darwin/internal/trace"
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
	if _, err := cache.NewSharded(cache.Config{HOCBytes: 1 << 20, DCBytes: 1 << 20}, 3); err == nil || !strings.Contains(err.Error(), "shard count 3") {
		t.Errorf("3 shards: err = %v, want one naming the count", err)
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

// runEngine is what TestServeRunMatchesServe compares: an engine with
// ServeRun, its switch count, and its state as checkpoint bytes.
type runEngine struct {
	cache.Engine
	serveRun func([]trace.Request)
	switches func() int64
	state    func() any
}

func newRunEngine(t testing.TB, cfg cache.Config, shards int) runEngine {
	t.Helper()
	if shards == 0 {
		h, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return runEngine{h, h.ServeRun, h.ExpertSwitches, func() any { return h.State() }}
	}
	s, err := cache.NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return runEngine{s, s.ServeRun, s.ExpertSwitches, func() any { return s.State() }}
}

// TestServeRunMatchesServe: ServeRun over a run decides exactly what Serve
// on each of its requests does — metrics, expert switches and the encoded
// state — on the serial hierarchy and 1, 2, 4 and 8 shards, under every HOC
// policy, for runs of 0, 1, 255, 256 and 257 requests (either side of a
// whole chunk) and a 20k-request run that grows the record tables in the
// middle of chunks. The expert changes between runs.
func TestServeRunMatchesServe(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 40_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	experts := cache.DefaultGrid()
	for _, policy := range []string{"lru", "fifo", "lfu", "s4lru", "gdsf"} {
		for _, shards := range []int{0, 1, 2, 4, 8} {
			cfg := cache.Config{HOCBytes: 256 << 10, DCBytes: 4 << 20, HOCEviction: policy, Expert: experts[0]}
			run, each := newRunEngine(t, cfg, shards), newRunEngine(t, cfg, shards)
			reqs := tr.Requests
			for i, n := range []int{0, 1, 255, 256, 257, 20_000, 257} {
				e := experts[(i*7)%len(experts)]
				run.SetExpert(e)
				each.SetExpert(e)
				run.serveRun(reqs[:n])
				for _, r := range reqs[:n] {
					each.Serve(r)
				}
				reqs = reqs[n:]
				if got, want := run.Metrics(), each.Metrics(); got != want {
					t.Fatalf("%s, %d shards, run %d of %d: ServeRun metrics %+v, Serve %+v", policy, shards, i, n, got, want)
				}
				if got, want := run.switches(), each.switches(); got != want {
					t.Fatalf("%s, %d shards, run %d: ServeRun switches %d, Serve %d", policy, shards, i, got, want)
				}
				got, err := json.Marshal(run.state())
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(each.state())
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("%s, %d shards, run %d of %d: ServeRun state differs from Serve's", policy, shards, i, n)
				}
			}
			if m := run.Metrics(); m.HOCAdmits == 0 || m.DCWrites == 0 {
				t.Fatalf("%s, %d shards: no admissions (%+v); the runs evict nothing", policy, shards, m)
			}
		}
	}
}

// BenchmarkShardedServeRun prices one request of Sharded.ServeRun, in runs
// of 1000 (the batch sim-shift times) on AutoShards shards, per HOC policy:
// BenchmarkServe's engine and trace, with a chunk's worth of requests per
// acquisition of the shard mutexes.
func BenchmarkShardedServeRun(b *testing.B) {
	tr, err := tracegen.ImageDownloadMix(50, 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []string{"lru", "fifo", "lfu", "s4lru", "gdsf"} {
		b.Run(policy, func(b *testing.B) {
			s, err := cache.NewSharded(cache.Config{HOCBytes: 2 << 20, DCBytes: 200 << 20, HOCEviction: policy,
				Expert: cache.Expert{Freq: 2, MaxSize: 10 << 10}}, cache.AutoShards())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n, i := b.N, 0; n > 0; {
				k := min(n, 1000, tr.Len()-i)
				s.ServeRun(tr.Requests[i : i+k])
				n, i = n-k, (i+k)%tr.Len()
			}
		})
	}
}
