// Quickstart: train Darwin offline on synthetic traces, then let it manage a
// cache online and compare against a hand-tuned static expert.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"darwin"
)

func main() {
	// The expert grid: candidate HOC admission policies (f, s).
	experts := darwin.ExpertGrid(
		[]int{1, 2, 3, 5, 7},
		[]int64{2 << 10, 10 << 10, 50 << 10, 200 << 10},
	)
	eval := darwin.EvalConfig{HOCBytes: 512 << 10, DCBytes: 64 << 20, WarmupFrac: 0.1}

	// 1. Offline: collect historical traces across traffic mixes. In a real
	// deployment these come from CDN logs; here the Tragen-like generator
	// synthesises Image:Download mixes.
	fmt.Println("building offline training corpus...")
	var train []*darwin.Trace
	for _, pct := range []int{0, 25, 50, 75, 100} {
		for seed := int64(0); seed < 2; seed++ {
			tr, err := darwin.ImageDownloadMix(pct, 20_000, 100*int64(pct)+seed)
			if err != nil {
				log.Fatal(err)
			}
			train = append(train, tr)
		}
	}

	// 2. Offline: evaluate experts, cluster traffic, train predictors.
	const warmup = 2_000
	ds, err := darwin.BuildDataset(train, darwin.DatasetConfig{
		Experts:       experts,
		Eval:          eval,
		FeatureWindow: warmup,
	})
	if err != nil {
		log.Fatal(err)
	}
	model, err := darwin.Train(ds, darwin.TrainConfig{NumClusters: 5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d traces with %d experts\n", len(train), len(experts))

	// 3. Online: a live workload the model has never seen (pure Image).
	live, err := darwin.ImageDownloadMix(100, 60_000, 4242)
	if err != nil {
		log.Fatal(err)
	}
	hier, err := darwin.NewCache(darwin.CacheConfig{HOCBytes: eval.HOCBytes, DCBytes: eval.DCBytes})
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := darwin.NewController(model, hier, darwin.OnlineConfig{
		Epoch:           60_000,
		Warmup:          warmup,
		Round:           600,
		StabilityRounds: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range live.Requests {
		ctrl.Serve(r)
	}
	for _, d := range ctrl.Diags() {
		fmt.Printf("epoch %d: cluster %d, %d candidates, %d bandit rounds (%s) -> deployed %s\n",
			d.Epoch, d.Cluster, d.SetSize, d.Rounds, d.StopReason, d.Chosen)
	}
	fmt.Printf("darwin OHR: %.4f\n", ctrl.Metrics().OHR())

	// Compare with a static expert tuned for a different (Download) mix.
	static := darwin.Expert{Freq: 1, MaxSize: 200 << 10}
	m, err := darwin.Evaluate(live, static, darwin.EvalConfig{
		HOCBytes: eval.HOCBytes, DCBytes: eval.DCBytes,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static %s OHR: %.4f\n", static, m.OHR())
}
