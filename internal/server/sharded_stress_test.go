package server

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"darwin/internal/faults"
	"darwin/internal/tracegen"
)

// TestShardedProxyStress is the sharded data plane's race-detector workout:
// a multi-shard static decider behind the resilient proxy, a fault-injecting
// origin (transient errors + latency spikes), mixed hit/miss/fault traffic
// from a concurrency-32 closed-loop load run, and a poller goroutine reading
// Stats/Metrics snapshots throughout. Run under -race this exercises every
// new seam at once: shard routing, per-shard locks, metrics reads under them,
// striped proxy counters, coalescing, and retries.
func TestShardedProxyStress(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 1_500, 17)
	if err != nil {
		t.Fatal(err)
	}
	dec := staticDecider(t, 4)
	if !dec.Concurrent() {
		t.Fatal("sharded static decider must advertise Concurrent()")
	}
	origin := &Origin{}
	injector := faults.New(faults.Config{Seed: 9, ErrorRate: 0.05, SpikeRate: 0.02, Spike: time.Millisecond})
	originSrv := httptest.NewServer(injector.Wrap(origin))
	defer originSrv.Close()
	proxy := NewOverloadProxy(dec, originSrv.URL, 0, fastResilience(), Overload{})
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := proxy.Stats()
			if st.Retries > st.OriginFetches {
				panic("torn stats: more retries than fetches")
			}
			m := proxy.Metrics()
			if m.HOCHits+m.DCHits+m.Misses != m.Requests {
				panic("torn metrics: hits+misses != requests")
			}
		}
	}()

	res, err := RunLoad(context.Background(), tr, LoadConfig{
		ProxyURL:       proxySrv.URL,
		Concurrency:    32,
		RequestTimeout: 30 * time.Second,
	})
	close(stop)
	poller.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
	// Retries absorb the 5% transient error rate; nearly everything succeeds.
	if rate := res.ErrorRate(); rate > 0.02 {
		t.Fatalf("error rate %.4f with resilience on, want < 0.02", rate)
	}
	// Committed requests equal client successes minus degraded serves: failed
	// fetches and stale answers never commit through the decider.
	if m := dec.Metrics(); m.Requests != int64(res.Requests-res.StaleServes) {
		t.Fatalf("decider accounted %d requests, clients completed %d (%d stale)",
			m.Requests, res.Requests, res.StaleServes)
	}
	// Every shard of the engine should have taken traffic.
	for i := 0; i < dec.Shards(); i++ {
		if dec.ShardMetrics(i).Requests == 0 {
			t.Errorf("shard %d saw no traffic", i)
		}
	}
}
