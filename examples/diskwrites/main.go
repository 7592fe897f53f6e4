// Diskwrites: Darwin optimising a hardware-dependent objective (§6.3). An
// SSD-backed server wants high hit rates *and* few disk writes (SSD write
// endurance is CAPEX, §2.2). The same Darwin framework is retrained with the
// combined objective OHR − K·diskWrite pressure; only the reward changes.
//
//	go run ./examples/diskwrites
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
	const warmup = 2_000

	var train []*darwin.Trace
	for _, pct := range []int{0, 25, 50, 75, 100} {
		for seed := int64(0); seed < 2; seed++ {
			tr, err := darwin.ImageDownloadMix(pct, 20_000, 8800+100*int64(pct)+seed)
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

	live, err := darwin.ImageDownloadMix(0, 60_000, 555)
	if err != nil {
		log.Fatal(err)
	}

	run := func(obj darwin.Objective) darwin.CacheMetrics {
		model, err := darwin.Train(ds, darwin.TrainConfig{
			Objective: obj, NumClusters: 5, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		hier, err := darwin.NewCache(darwin.CacheConfig{HOCBytes: eval.HOCBytes, DCBytes: eval.DCBytes})
		if err != nil {
			log.Fatal(err)
		}
		ctrl, err := darwin.NewController(model, hier, darwin.OnlineConfig{
			Epoch: 60_000, Warmup: warmup, Round: 600, StabilityRounds: 5,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range live.Requests {
			ctrl.Serve(r)
		}
		for _, d := range ctrl.Diags() {
			fmt.Printf("  [%s] epoch %d -> %s\n", obj.Name(), d.Epoch, d.Chosen)
		}
		return ctrl.Metrics()
	}

	fmt.Println("same framework, two objectives (only the reward changes):")
	ohr := run(darwin.OHRObjective{})
	combined := run(darwin.CombinedObjective{K: 2})

	report := func(name string, m darwin.CacheMetrics) {
		// §6.3 approximates SSD write pressure by the bytes missed in the
		// HOC, which the disk tier must then serve or absorb.
		writePressure := float64(m.Bytes-m.HOCHitBytes) / float64(m.Requests)
		fmt.Printf("%-22s OHR %.4f  BMR %.4f  HOC-miss (SSD) pressure %.0f B/req\n",
			name, m.OHR(), m.BMR(), writePressure)
	}
	fmt.Println()
	report("darwin[ohr]", ohr)
	report("darwin[ohr-diskwrite]", combined)
	fmt.Println("\nthe combined objective trades a little OHR for fewer bytes pushed at the SSD")
}
