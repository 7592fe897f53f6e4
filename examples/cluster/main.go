// Cluster: the full §2.1 scenario end to end. A global workload is routed
// over a four-server cluster by a consistent-hashing load balancer with
// bounded loads; mid-run, two servers drain and the survivors absorb their
// traffic, shifting every surviving server's mix. Each server runs its own
// Darwin controller and re-identifies its best admission expert.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"darwin"
)

func main() {
	experts := darwin.ExpertGrid(
		[]int{1, 2, 3, 5, 7},
		[]int64{2 << 10, 10 << 10, 50 << 10, 200 << 10},
	)
	eval := darwin.EvalConfig{HOCBytes: 512 << 10, DCBytes: 64 << 20, WarmupFrac: 0.1}
	const warmup = 1_500

	// Offline phase shared by all edge servers (one model, many deployments).
	fmt.Println("offline training (shared model)...")
	var train []*darwin.Trace
	for _, pct := range []int{0, 25, 50, 75, 100} {
		for seed := int64(0); seed < 2; seed++ {
			tr, err := darwin.ImageDownloadMix(pct, 15_000, 5100+100*int64(pct)+seed)
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
	model, err := darwin.Train(ds, darwin.TrainConfig{NumClusters: 5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// A global workload, balanced over four servers; halfway through, two
	// servers drain for maintenance and the survivors absorb their traffic.
	global, err := darwin.ImageDownloadMix(50, 160_000, 9001)
	if err != nil {
		log.Fatal(err)
	}
	subs, err := darwin.SplitTrace(global, darwin.LoadBalancerConfig{
		Servers:        4,
		RebalanceEvery: 20_000,
		Weight: func(window, server int) float64 {
			if window >= 4 && server >= 2 {
				return 0.05 // servers 2 and 3 drain
			}
			return 1
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nper-server Darwin deployments:")
	for si, sub := range subs {
		if sub.Len() < 10_000 {
			fmt.Printf("server %d: only %d requests (drained), skipping controller\n", si, sub.Len())
			continue
		}
		hier, err := darwin.NewCache(darwin.CacheConfig{HOCBytes: eval.HOCBytes, DCBytes: eval.DCBytes})
		if err != nil {
			log.Fatal(err)
		}
		ctrl, err := darwin.NewController(model, hier, darwin.OnlineConfig{
			Epoch: 20_000, Warmup: warmup, Round: 500, StabilityRounds: 5,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range sub.Requests {
			ctrl.Serve(r)
		}
		fmt.Printf("server %d: %d requests, OHR %.4f\n", si, sub.Len(), ctrl.Metrics().OHR())
		for _, d := range ctrl.Diags() {
			fmt.Printf("   epoch %d: %d candidates, %d rounds (%s) -> %s\n",
				d.Epoch, d.SetSize, d.Rounds, d.StopReason, d.Chosen)
		}
	}
}
