// Prototype: the full HTTP testbed in one process (§5, §6.4) — an origin
// server with injected WAN latency, a Darwin-managed caching proxy, and a
// closed-loop load generator measuring first-byte latency and throughput.
//
//	go run ./examples/prototype
//	go run ./examples/prototype -shards 4   # lock-striped proxy data plane
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"darwin"
)

func main() {
	shards := flag.Int("shards", 0, "cache engine shard count (0 = auto, 1 = serial/global-lock)")
	flag.Parse()
	if *shards <= 0 {
		*shards = darwin.AutoShards()
	}
	experts := darwin.ExpertGrid(
		[]int{1, 2, 3, 5},
		[]int64{2 << 10, 10 << 10, 50 << 10, 200 << 10},
	)
	eval := darwin.EvalConfig{HOCBytes: 512 << 10, DCBytes: 64 << 20, WarmupFrac: 0.1}
	const warmup = 1_500

	// Offline phase.
	fmt.Println("training offline model...")
	var train []*darwin.Trace
	for _, pct := range []int{0, 50, 100} {
		for seed := int64(0); seed < 2; seed++ {
			tr, err := darwin.ImageDownloadMix(pct, 15_000, 2200+100*int64(pct)+seed)
			if err != nil {
				log.Fatal(err)
			}
			train = append(train, tr)
		}
	}
	ds, err := darwin.BuildDataset(train, darwin.DatasetConfig{
		Experts: experts, Eval: eval, FeatureWindow: warmup,
	})
	if err != nil {
		log.Fatal(err)
	}
	model, err := darwin.Train(ds, darwin.TrainConfig{NumClusters: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Origin with injected WAN latency.
	origin := &darwin.Origin{Latency: 5 * time.Millisecond}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()

	// Darwin-managed proxy with a disk-latency DC, over a sharded engine so
	// concurrent clients hit per-shard locks instead of one global mutex.
	eng, err := darwin.NewShardedCache(darwin.CacheConfig{HOCBytes: eval.HOCBytes, DCBytes: eval.DCBytes}, *shards)
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := darwin.NewController(model, eng, darwin.OnlineConfig{
		Epoch: 20_000, Warmup: warmup, Round: 500, StabilityRounds: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	proxy := darwin.NewProxy(ctrl, originSrv.URL, time.Millisecond, darwin.DefaultResilience(), darwin.DefaultOverload())
	proxySrv := httptest.NewServer(proxy)
	defer proxySrv.Close()
	fmt.Printf("origin %s (5ms), proxy %s (1ms disk, %d shards)\n", originSrv.URL, proxySrv.URL, eng.Shards())

	// Load: a mixed workload replayed by concurrent closed-loop clients.
	live, err := darwin.ImageDownloadMix(60, 8_000, 777)
	if err != nil {
		log.Fatal(err)
	}
	for _, conc := range []int{1, 8, 32} {
		res, err := darwin.RunLoad(context.Background(), live, darwin.LoadConfig{
			ProxyURL:    proxySrv.URL,
			Concurrency: conc,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("concurrency %3d: %.1f Mbps, p50 %-8v p99 %-8v (%d hoc / %d dc / %d miss)\n",
			conc, res.ThroughputBps()/1e6,
			res.LatencyPercentile(50).Round(10*time.Microsecond),
			res.LatencyPercentile(99).Round(10*time.Microsecond),
			res.HOCHits, res.DCHits, res.Misses)
	}
	reqs, bytes := origin.Stats()
	m := proxy.Metrics()
	fmt.Printf("\nproxy OHR %.4f; origin saw %d requests (%.1f MB midgress)\n",
		m.OHR(), reqs, float64(bytes)/(1<<20))
}
