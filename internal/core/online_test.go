package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darwin/internal/cache"
	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

func onlineCfg() OnlineConfig {
	return OnlineConfig{
		Epoch:           12000,
		Warmup:          1500,
		Round:           400,
		Delta:           0.05,
		StabilityRounds: 3,
		Neff:            50,
		VarFloor:        1e-4,
	}
}

func trainedModel(t testing.TB) *Model {
	t.Helper()
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newHier(t *testing.T) *cache.Hierarchy {
	t.Helper()
	ec := testEval()
	h, err := cache.New(cache.Config{HOCBytes: ec.HOCBytes, DCBytes: ec.DCBytes})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewControllerValidation(t *testing.T) {
	m := trainedModel(t)
	h := newHier(t)
	if _, err := NewController(nil, h, onlineCfg()); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewController(m, nil, onlineCfg()); err == nil {
		t.Error("nil hierarchy accepted")
	}
	bad := onlineCfg()
	bad.Epoch = bad.Warmup // no room for rounds
	if _, err := NewController(m, h, bad); err == nil {
		t.Error("epoch shorter than warmup+rounds accepted")
	}
	bad2 := onlineCfg()
	bad2.Delta = 1.5
	if _, err := NewController(m, h, bad2); err == nil {
		t.Error("bad delta accepted")
	}
}

func TestDefaultOnlineConfigValid(t *testing.T) {
	if err := DefaultOnlineConfig().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestControllerPhaseProgression(t *testing.T) {
	m := trainedModel(t)
	h := newHier(t)
	c, err := NewController(m, h, onlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	if c.Phase() != PhaseWarmup {
		t.Fatalf("initial phase = %v", c.Phase())
	}
	tr, err := tracegen.ImageDownloadMix(50, 12000, 200)
	if err != nil {
		t.Fatal(err)
	}
	sawIdentify, sawExploit := false, false
	for _, r := range tr.Requests {
		c.Serve(r)
		switch c.Phase() {
		case PhaseIdentify:
			sawIdentify = true
		case PhaseExploit:
			sawExploit = true
		}
	}
	if !sawExploit {
		t.Fatal("controller never reached exploit phase")
	}
	diags := c.Diags()
	if len(diags) == 0 {
		t.Fatal("no epoch diagnostics recorded")
	}
	d := diags[0]
	if d.SetSize > 1 && !sawIdentify {
		t.Fatal("multi-expert set but no identify phase observed")
	}
	if d.Chosen == (cache.Expert{}) {
		t.Fatal("no expert chosen")
	}
	if d.SetSize > 1 && d.Rounds < d.SetSize {
		t.Fatalf("identification used %d rounds for %d arms (must init all)", d.Rounds, d.SetSize)
	}
}

func TestControllerEpochRollover(t *testing.T) {
	m := trainedModel(t)
	h := newHier(t)
	cfg := onlineCfg()
	c, err := NewController(m, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(30, cfg.Epoch*2+100, 201)
	if err != nil {
		t.Fatal(err)
	}
	c.Play(tr)
	diags := c.Diags()
	if len(diags) < 2 {
		t.Fatalf("expected >= 2 epochs of diagnostics, got %d", len(diags))
	}
	if diags[0].Epoch == diags[1].Epoch {
		t.Fatal("epoch counter did not advance")
	}
}

func TestControllerPicksGoodExpert(t *testing.T) {
	// End-to-end sanity: Darwin's chosen expert should be within the top
	// half of the grid for the served trace (hindsight evaluation).
	m := trainedModel(t)
	h := newHier(t)
	cfg := onlineCfg()
	c, err := NewController(m, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(100, 14000, 300) // pure image
	if err != nil {
		t.Fatal(err)
	}
	c.Play(tr)
	diags := c.Diags()
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	chosen := diags[len(diags)-1].Chosen
	// Hindsight: evaluate all experts on the trace.
	ms, err := cache.EvaluateAll(tr, m.Experts, testEval())
	if err != nil {
		t.Fatal(err)
	}
	chosenIdx := cache.Index(m.Experts, chosen)
	if chosenIdx < 0 {
		t.Fatalf("chosen expert %v not in grid", chosen)
	}
	better := 0
	for _, mm := range ms {
		if mm.OHR() > ms[chosenIdx].OHR() {
			better++
		}
	}
	if better > len(ms)/2 {
		t.Fatalf("chosen expert %v ranks %d/%d by hindsight OHR", chosen, better+1, len(ms))
	}
}

func TestControllerDisableSideInfo(t *testing.T) {
	m := trainedModel(t)
	h := newHier(t)
	cfg := onlineCfg()
	cfg.DisableSideInfo = true
	c, err := NewController(m, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(50, 12000, 203)
	if err != nil {
		t.Fatal(err)
	}
	c.Play(tr)
	if len(c.Diags()) == 0 {
		t.Fatal("ablation run recorded no diagnostics")
	}
}

func TestControllerSingletonSet(t *testing.T) {
	m := trainedModel(t)
	// Shrink every set to one expert.
	for i := range m.ExpertSets {
		if len(m.ExpertSets[i]) > 1 {
			m.ExpertSets[i] = m.ExpertSets[i][:1]
		}
	}
	h := newHier(t)
	c, err := NewController(m, h, onlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracegen.ImageDownloadMix(50, 4000, 204)
	if err != nil {
		t.Fatal(err)
	}
	c.Play(tr)
	d := c.Diags()
	if len(d) == 0 || d[0].StopReason != "singleton" {
		t.Fatalf("diags = %+v, want singleton stop", d)
	}
	if c.Phase() != PhaseExploit {
		t.Fatalf("phase = %v", c.Phase())
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseWarmup.String() != "warmup" || PhaseIdentify.String() != "identify" || PhaseExploit.String() != "exploit" {
		t.Fatal("phase strings wrong")
	}
	if Phase(9).String() == "" {
		t.Fatal("unknown phase should still render")
	}
}

func TestControllerWithoutPredictors(t *testing.T) {
	// A model trained with SkipPredictors has no cross-expert networks: the
	// controller must degrade gracefully to standard bandit feedback
	// (infinite off-diagonal variances) rather than fail.
	ds := testDataset(t)
	m, err := Train(ds, TrainConfig{NumClusters: 3, Seed: 1, SkipPredictors: true})
	if err != nil {
		t.Fatal(err)
	}
	h := newHier(t)
	c, err := NewController(m, h, onlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraces(t)[2]
	c.Play(tr)
	if c.Metrics().Requests != int64(tr.Len()) {
		t.Fatal("controller stalled without predictors")
	}
	if len(c.Diags()) == 0 {
		t.Fatal("no diagnostics")
	}
}

func TestControllerUniformBanditAblation(t *testing.T) {
	m := trainedModel(t)
	h := newHier(t)
	cfg := onlineCfg()
	cfg.UniformBandit = true
	c, err := NewController(m, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraces(t)[4]
	c.Play(tr)
	if len(c.Diags()) == 0 {
		t.Fatal("uniform-bandit run recorded nothing")
	}
}

func TestLearningDurationAccounting(t *testing.T) {
	m := trainedModel(t)
	h := newHier(t)
	c, err := NewController(m, h, onlineCfg())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraces(t)[0]
	c.Play(tr)
	d := c.LearningDuration()
	if d <= 0 {
		t.Fatal("no learning time recorded")
	}
	if d > time.Second {
		t.Fatalf("learning time %v implausibly large for a %d-request trace", d, tr.Len())
	}
}

// TestControllerConcurrentEpochs drives one controller over a sharded engine
// from several goroutines across many epochs. Goroutines serve in waves
// shorter than an epoch and misaligned with it, so every epoch boundary falls
// inside a wave with all of them racing for it; between waves the position
// must be exact — total serves == epochs·Epoch + position in the open epoch —
// which pins every single epoch at exactly cfg.Epoch serves and rules out a
// serve counted twice or dropped at a boundary. A poller reads the engine's
// metrics and the controller's checkpoint throughout.
func TestControllerConcurrentEpochs(t *testing.T) {
	m := trainedModel(t)
	ec := testEval()
	eng, err := cache.NewSharded(cache.Config{HOCBytes: ec.HOCBytes, DCBytes: ec.DCBytes}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := onlineCfg()
	cfg.Epoch, cfg.Warmup, cfg.Round = 2000, 300, 100
	c, err := NewController(m, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraces(t)[5]

	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if m := eng.Metrics(); m.HOCHits+m.DCHits+m.Misses != m.Requests {
				t.Errorf("snapshot: hits+misses %d != requests %d", m.HOCHits+m.DCHits+m.Misses, m.Requests)
				return
			}
			if st := c.CheckpointState(); st.EpochReqs < 0 || st.EpochReqs >= cfg.Epoch {
				t.Errorf("checkpoint mid-run: %s at %d of %d", st.Phase, st.EpochReqs, cfg.Epoch)
				return
			}
		}
	}()

	const workers, perWave, waves = 4, 131, 160 // 524 per wave; 83840 serves, 41 epochs
	total, sawExploit := 0, false
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(first int) {
				defer wg.Done()
				for i := first; i < first+perWave; i++ {
					c.Serve(tr.Requests[i%tr.Len()])
				}
			}(total + g*perWave)
		}
		wg.Wait()
		total += workers * perWave
		st := c.CheckpointState()
		if got := st.Epoch*cfg.Epoch + st.EpochReqs; got != total {
			t.Fatalf("after %d serves the controller has counted %d (epoch %d + %d, %s)",
				total, got, st.Epoch, st.EpochReqs, st.Phase)
		}
		if req := c.Metrics().Requests; req != int64(total) {
			t.Fatalf("after %d serves the engine has counted %d", total, req)
		}
		sawExploit = sawExploit || st.Phase == "exploit"
	}
	close(stop)
	<-polled
	if !sawExploit {
		t.Fatal("no wave ended in exploit: the lock-free path never ran")
	}
	if got, want := len(c.Diags()), total/cfg.Epoch; got < want {
		t.Fatalf("%d epoch decisions recorded over %d complete epochs", got, want)
	}
}

// BenchmarkControllerServe prices what the controller adds to an engine
// serve in the steady state (PhaseExploit), from one goroutine and from
// GOMAXPROCS of them.
func BenchmarkControllerServe(b *testing.B) {
	exploiting := func(b *testing.B) (*Controller, []trace.Request) {
		ec := testEval()
		eng, err := cache.NewSharded(cache.Config{HOCBytes: ec.HOCBytes, DCBytes: ec.DCBytes}, cache.AutoShards())
		if err != nil {
			b.Fatal(err)
		}
		cfg := onlineCfg()
		cfg.Epoch = 1 << 40 // the timed loop never meets a boundary
		c, err := NewController(trainedModel(b), eng, cfg)
		if err != nil {
			b.Fatal(err)
		}
		reqs := testTraces(b)[5].Requests
		for i := 0; c.Phase() != PhaseExploit; i++ {
			c.Serve(reqs[i%len(reqs)])
		}
		b.ReportAllocs()
		b.ResetTimer()
		return c, reqs
	}
	b.Run("serial", func(b *testing.B) {
		c, reqs := exploiting(b)
		for i := 0; i < b.N; i++ {
			c.Serve(reqs[i%len(reqs)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		c, reqs := exploiting(b)
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			i := int(next.Add(1)) * 4099 // each goroutine starts elsewhere in the trace
			for pb.Next() {
				c.Serve(reqs[i%len(reqs)])
				i++
			}
		})
	})
}
