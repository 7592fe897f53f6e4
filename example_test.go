package darwin_test

import (
	"fmt"
	"log"

	"darwin"
)

// Train Darwin offline on synthetic traces, then let it manage a cache online
// and compare it against a static expert tuned for a different mix.
func Example_quickstart() {
	// The expert grid: candidate HOC admission policies (f, s).
	experts := darwin.ExpertGrid(
		[]int{1, 2, 3, 5, 7},
		[]int64{2 << 10, 10 << 10, 50 << 10, 200 << 10},
	)
	eval := darwin.EvalConfig{HOCBytes: 512 << 10, DCBytes: 64 << 20, WarmupFrac: 0.1}

	// Offline: historical traces across traffic mixes. In a deployment these
	// come from CDN logs; here the Tragen-like generator synthesises
	// Image:Download mixes.
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

	// Offline: evaluate experts, cluster traffic, train predictors.
	const warmup = 2_000
	ds, err := darwin.BuildDataset(train, darwin.DatasetConfig{
		Experts:       experts,
		Eval:          eval,
		FeatureWindow: warmup, // = the online warm-up length
	})
	if err != nil {
		log.Fatal(err)
	}
	model, err := darwin.Train(ds, darwin.TrainConfig{NumClusters: 5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d traces with %d experts\n", len(train), len(experts))

	// Online: the controller adapts the cache's admission expert per epoch,
	// here on a live workload the model has never seen (pure Image).
	live, err := darwin.ImageDownloadMix(100, 60_000, 4242)
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
		fmt.Printf("epoch %d: cluster %d, %d candidates, %d bandit rounds (%s) -> deployed %s\n",
			d.Epoch, d.Cluster, d.SetSize, d.Rounds, d.StopReason, d.Chosen)
	}
	fmt.Printf("darwin OHR: %.4f\n", ctrl.Metrics().OHR())

	// Compare with a static expert tuned for a different (Download) mix.
	static := darwin.Expert{Freq: 1, MaxSize: 200 << 10}
	m, err := darwin.Evaluate(live, static, darwin.EvalConfig{HOCBytes: eval.HOCBytes, DCBytes: eval.DCBytes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static %s OHR: %.4f\n", static, m.OHR())
	// Output:
	// trained on 10 traces with 20 experts
	// epoch 0: cluster 0, 9 candidates, 13 bandit rounds (stability) -> deployed f3s10k
	// darwin OHR: 0.6220
	// static f1s200k OHR: 0.6109
}

// The scenario that motivates Darwin (§2.1): a CDN load balancer abruptly
// changes a server's traffic mix (a major software update is released and an
// image-heavy server starts serving large downloads). Darwin re-identifies
// the best admission expert each epoch; a static expert chosen for the old
// mix degrades.
func Example_trafficshift() {
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
	// image-heavy browsing, then an update-style download surge, then a
	// mixed steady state.
	var segs []*darwin.Trace
	for i, pct := range []int{100, 0, 50} {
		seg, err := darwin.ImageDownloadMix(pct, epoch, 31+int64(i))
		if err != nil {
			log.Fatal(err)
		}
		segs = append(segs, seg)
	}
	live := darwin.ConcatTraces("shifting-live", segs...)

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

	fmt.Println("per-epoch adaptation:")
	for _, d := range ctrl.Diags() {
		fmt.Printf("  epoch %d: cluster %d, %d candidates, %d rounds (%s) -> %s\n",
			d.Epoch, d.Cluster, d.SetSize, d.Rounds, d.StopReason, d.Chosen)
	}
	names := []string{"image-heavy", "download-surge", "mixed"}
	fmt.Println("\nper-segment HOC OHR:")
	for i := 0; i+1 < len(marks); i++ {
		fmt.Printf("  %-15s darwin %.4f\n", names[i], marks[i+1].Sub(marks[i]).OHR())
	}

	// The counterfactual: stick with the expert that was best for segment 1.
	firstChoice := ctrl.Diags()[0].Chosen
	m, err := darwin.Evaluate(live, firstChoice, darwin.EvalConfig{HOCBytes: eval.HOCBytes, DCBytes: eval.DCBytes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwhole trace: darwin %.4f vs frozen %s %.4f\n",
		ctrl.Metrics().OHR(), firstChoice, m.OHR())
	// Output:
	// per-epoch adaptation:
	//   epoch 0: cluster 1, 9 candidates, 13 rounds (stability) -> f1s10k
	//   epoch 1: cluster 4, 2 candidates, 7 rounds (stability) -> f7s200k
	//   epoch 2: cluster 0, 4 candidates, 8 rounds (stability) -> f7s50k
	//
	// per-segment HOC OHR:
	//   image-heavy     darwin 0.6204
	//   download-surge  darwin 0.4572
	//   mixed           darwin 0.3466
	//
	// whole trace: darwin 0.4747 vs frozen f1s10k 0.4197
}

// Darwin optimising a hardware-dependent objective (§6.3). An SSD-backed
// server wants high hit rates and few disk writes (SSD write endurance is
// CAPEX, §2.2). The same framework is retrained with the combined objective
// OHR − K·disk-write pressure; only the reward changes.
func Example_diskwrites() {
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
		model, err := darwin.Train(ds, darwin.TrainConfig{Objective: obj, NumClusters: 5, Seed: 1})
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
	objectives := []darwin.Objective{darwin.OHRObjective{}, darwin.CombinedObjective{K: 2}}
	results := make([]darwin.CacheMetrics, len(objectives))
	for i, obj := range objectives {
		results[i] = run(obj)
	}
	fmt.Println()
	for i, m := range results {
		// §6.3 approximates SSD write pressure by the bytes missed in the
		// HOC, which the disk tier must then serve or absorb.
		writePressure := float64(m.Bytes-m.HOCHitBytes) / float64(m.Requests)
		fmt.Printf("%-24s OHR %.4f  BMR %.4f  HOC-miss (SSD) pressure %.0f B/req\n",
			"darwin["+objectives[i].Name()+"]", m.OHR(), m.BMR(), writePressure)
	}
	fmt.Println("\nthe combined objective trades a little OHR for fewer bytes pushed at the SSD")
	// Output:
	// same framework, two objectives (only the reward changes):
	//   [ohr] epoch 0 -> f7s50k
	//   [ohr-2xdiskwrite] epoch 0 -> f7s200k
	//
	// darwin[ohr]              OHR 0.3780  BMR 0.8041  HOC-miss (SSD) pressure 43259 B/req
	// darwin[ohr-2xdiskwrite]  OHR 0.3570  BMR 0.7430  HOC-miss (SSD) pressure 39971 B/req
	//
	// the combined objective trades a little OHR for fewer bytes pushed at the SSD
}

// The §2.1 scenario across a cluster, offline: a global workload is routed
// over four servers by a consistent-hashing load balancer with bounded loads;
// midway, two servers drain and the survivors absorb their traffic, shifting
// every surviving server's mix. Each server runs its own Darwin controller
// over one shared model and re-identifies its best admission expert.
func Example_cluster() {
	experts := darwin.ExpertGrid(
		[]int{1, 2, 3, 5, 7},
		[]int64{2 << 10, 10 << 10, 50 << 10, 200 << 10},
	)
	eval := darwin.EvalConfig{HOCBytes: 512 << 10, DCBytes: 64 << 20, WarmupFrac: 0.1}
	const warmup = 1_500

	// Offline phase shared by all edge servers (one model, many deployments).
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

	// A global workload balanced over four servers; halfway through, servers
	// 2 and 3 drain for maintenance.
	global, err := darwin.ImageDownloadMix(50, 160_000, 9001)
	if err != nil {
		log.Fatal(err)
	}
	subs, err := darwin.SplitTrace(global, darwin.LoadBalancerConfig{
		Servers:        4,
		RebalanceEvery: 20_000,
		Weight: func(window, server int) float64 {
			if window >= 4 && server >= 2 {
				return 0.05
			}
			return 1
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("per-server Darwin deployments:")
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
	// Output:
	// per-server Darwin deployments:
	// server 0: 72620 requests, OHR 0.3852
	//    epoch 0: 1 candidates, 0 rounds (singleton) -> f7s200k
	//    epoch 1: 1 candidates, 0 rounds (singleton) -> f7s200k
	//    epoch 2: 4 candidates, 8 rounds (stability) -> f2s10k
	//    epoch 3: 1 candidates, 0 rounds (singleton) -> f7s200k
	// server 1: 48299 requests, OHR 0.6222
	//    epoch 0: 1 candidates, 0 rounds (singleton) -> f7s200k
	//    epoch 1: 1 candidates, 0 rounds (singleton) -> f7s200k
	//    epoch 2: 2 candidates, 6 rounds (stability) -> f2s10k
	// server 2: 16692 requests, OHR 0.5697
	//    epoch 0: 1 candidates, 0 rounds (singleton) -> f7s200k
	// server 3: 22389 requests, OHR 0.3754
	//    epoch 0: 1 candidates, 0 rounds (singleton) -> f7s200k
	//    epoch 1: 1 candidates, 0 rounds (singleton) -> f7s200k
}
