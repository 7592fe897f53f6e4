// Trafficshift: the scenario that motivates Darwin (§2.1) — a CDN load
// balancer abruptly changes a server's traffic mix (e.g. a major software
// update is released and a Web-heavy server starts serving large downloads).
// Darwin re-identifies the best admission expert each epoch; static experts
// tuned for the old mix degrade.
//
//	go run ./examples/trafficshift
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
	const (
		epoch  = 40_000
		warmup = 2_000
	)

	// Offline phase over the mix space.
	fmt.Println("offline training...")
	var train []*darwin.Trace
	for _, pct := range []int{0, 25, 50, 75, 100} {
		for seed := int64(0); seed < 2; seed++ {
			tr, err := darwin.ImageDownloadMix(pct, 20_000, 7000+100*int64(pct)+seed)
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

	// The live workload: three epochs with a hard mix shift between them —
	// image-heavy browsing, then an iOS-update-style download surge, then a
	// mixed steady state.
	seg1, err := darwin.ImageDownloadMix(100, epoch, 31)
	if err != nil {
		log.Fatal(err)
	}
	seg2, err := darwin.ImageDownloadMix(0, epoch, 32)
	if err != nil {
		log.Fatal(err)
	}
	seg3, err := darwin.ImageDownloadMix(50, epoch, 33)
	if err != nil {
		log.Fatal(err)
	}
	live := darwin.ConcatTraces("shifting-live", seg1, seg2, seg3)

	// Darwin adapts at epoch boundaries.
	hier, err := darwin.NewCache(darwin.CacheConfig{HOCBytes: eval.HOCBytes, DCBytes: eval.DCBytes})
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := darwin.NewController(model, hier, darwin.OnlineConfig{
		Epoch: epoch, Warmup: warmup, Round: 600, StabilityRounds: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	var marks []darwin.CacheMetrics
	for i, r := range live.Requests {
		if i%epoch == 0 {
			marks = append(marks, ctrl.Metrics())
		}
		ctrl.Serve(r)
	}
	marks = append(marks, ctrl.Metrics())

	fmt.Println("\nper-epoch adaptation:")
	for _, d := range ctrl.Diags() {
		fmt.Printf("  epoch %d: cluster %d, %d candidates, %d rounds (%s) -> %s\n",
			d.Epoch, d.Cluster, d.SetSize, d.Rounds, d.StopReason, d.Chosen)
	}
	names := []string{"image-heavy", "download-surge", "mixed"}
	fmt.Println("\nper-segment HOC OHR:")
	for i := 0; i+1 < len(marks); i++ {
		seg := marks[i+1].Sub(marks[i])
		fmt.Printf("  %-15s darwin %.4f\n", names[i], seg.OHR())
	}

	// The counterfactual: stick with the expert that was best for segment 1.
	firstChoice := ctrl.Diags()[0].Chosen
	m, err := darwin.Evaluate(live, firstChoice, darwin.EvalConfig{
		HOCBytes: eval.HOCBytes, DCBytes: eval.DCBytes,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwhole trace: darwin %.4f vs frozen %s %.4f\n",
		ctrl.Metrics().OHR(), firstChoice, m.OHR())
}
