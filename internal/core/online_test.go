package core

import (
	"encoding/json"
	"reflect"
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
		StabilityRounds: 3,
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
// serve counted twice or dropped at a boundary. One goroutine plays its
// slice with Play, so run reservations race per-request serves. A poller
// reads the engine's metrics and the controller's checkpoint throughout.
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
			go func(g, first int) {
				defer wg.Done()
				if g == 0 {
					slice := make([]trace.Request, perWave)
					for i := range slice {
						slice[i] = tr.Requests[(first+i)%tr.Len()]
					}
					c.Play(&trace.Trace{Requests: slice})
					return
				}
				for i := first; i < first+perWave; i++ {
					c.Serve(tr.Requests[i%tr.Len()])
				}
			}(g, total+g*perWave)
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

// exploiting returns a controller over eng that has reached PhaseExploit in
// an epoch too long for any caller to finish, and the trace it was driven
// with.
func exploiting(tb testing.TB, eng cache.Engine) (*Controller, []trace.Request) {
	tb.Helper()
	cfg := onlineCfg()
	cfg.Epoch = 1 << 40 // the timed loop never meets a boundary
	c, err := NewController(trainedModel(tb), eng, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	reqs := testTraces(tb)[5].Requests
	for i := 0; c.Phase() != PhaseExploit; i++ {
		c.Serve(reqs[i%len(reqs)])
	}
	return c, reqs
}

// autoSharded is the deployed engine at the test sizes.
func autoSharded(tb testing.TB) *cache.Sharded {
	ec := testEval()
	eng, err := cache.NewSharded(cache.Config{HOCBytes: ec.HOCBytes, DCBytes: ec.DCBytes}, cache.AutoShards())
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// BenchmarkControllerServe prices what the controller adds to an engine
// serve in the steady state (PhaseExploit), from one goroutine and from
// GOMAXPROCS of them.
func BenchmarkControllerServe(b *testing.B) {
	start := func(b *testing.B) (*Controller, []trace.Request) {
		c, reqs := exploiting(b, autoSharded(b))
		b.ReportAllocs()
		b.ResetTimer()
		return c, reqs
	}
	b.Run("serial", func(b *testing.B) {
		c, reqs := start(b)
		for i := 0; i < b.N; i++ {
			c.Serve(reqs[i%len(reqs)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		c, reqs := start(b)
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

// BenchmarkControllerPlay prices a serial exploit replay per request: Play
// over the trace in 1000-request batches, the batch sim-shift times.
func BenchmarkControllerPlay(b *testing.B) {
	c, reqs := exploiting(b, autoSharded(b))
	tr := &trace.Trace{}
	b.ReportAllocs()
	b.ResetTimer()
	for n, i := b.N, 0; n > 0; {
		k := min(n, 1000, len(reqs)-i)
		tr.Requests = reqs[i : i+k]
		c.Play(tr)
		n, i = n-k, (i+k)%len(reqs)
	}
}

// TestServeZeroAllocs pins the decider's steady-state step, an exploit
// Serve, at zero allocations over the bare hierarchy and the sharded engine,
// once the engine has met the trace's high-water mark. One run serves the
// whole trace, so an allocation on any request fails it.
func TestServeZeroAllocs(t *testing.T) {
	for _, eng := range []cache.Engine{newHier(t), autoSharded(t)} {
		c, reqs := exploiting(t, eng)
		c.Play(&trace.Trace{Requests: reqs})
		if allocs := testing.AllocsPerRun(1, func() {
			for _, r := range reqs {
				c.Serve(r)
			}
		}); allocs != 0 {
			t.Fatalf("%T: exploit Serves made %v allocations over a pass of the trace", eng, allocs)
		}
		if c.Phase() != PhaseExploit {
			t.Fatalf("%T: left exploit", eng)
		}
	}
}

// TestPlayZeroAllocs pins an exploit batch's replay at zero allocations,
// over the bare hierarchy and the sharded engine, once the engine has met
// the trace's high-water mark; and an identification batch that ends inside
// a round, over ids warm-up already served. Warm-up itself is not pinned:
// its feature extractor grows a map per new id.
func TestPlayZeroAllocs(t *testing.T) {
	for _, eng := range []cache.Engine{newHier(t), autoSharded(t)} {
		c, reqs := exploiting(t, eng)
		c.Play(&trace.Trace{Requests: reqs})
		batch := &trace.Trace{Requests: reqs[:1000]}
		if allocs := testing.AllocsPerRun(20, func() { c.Play(batch) }); allocs != 0 {
			t.Fatalf("%T: Play of an exploit batch made %v allocations", eng, allocs)
		}
		if c.Phase() != PhaseExploit {
			t.Fatalf("%T: left exploit", eng)
		}
	}
	for _, eng := range []cache.Engine{newHier(t), autoSharded(t)} {
		cfg := onlineCfg()
		c, err := NewController(trainedModel(t), eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs := testTraces(t)[5].Requests
		c.Play(&trace.Trace{Requests: reqs[:cfg.Warmup]})
		if c.Phase() != PhaseIdentify {
			t.Fatalf("%T: phase %v after warm-up, want identify", eng, c.Phase())
		}
		// 11 runs of 30 stay inside the first 400-request round.
		batch := &trace.Trace{Requests: reqs[:30]}
		before := c.roundReqs
		if allocs := testing.AllocsPerRun(10, func() { c.Play(batch) }); allocs != 0 {
			t.Fatalf("%T: Play of an identification batch made %v allocations", eng, allocs)
		}
		if c.Phase() != PhaseIdentify || c.roundReqs != before+11*30 {
			t.Fatalf("%T: the batches crossed a round boundary (round at %d, was %d)", eng, c.roundReqs, before)
		}
	}
}

// playCfg puts every kind of boundary inside a batch and on batch edges:
// warm-up ends at 300, rounds every 100 after it, exploit wherever
// identification stops, epochs every 2000.
func playCfg() OnlineConfig {
	cfg := onlineCfg()
	cfg.Epoch, cfg.Warmup, cfg.Round = 2000, 300, 100
	return cfg
}

// playTrace is two 12k-request traces of different mixes back to back, so
// the twelve epochs do not all match one cluster.
func playTrace(tb testing.TB) []trace.Request {
	trs := testTraces(tb)
	return append(append([]trace.Request(nil), trs[1].Requests...), trs[8].Requests...)
}

// playEngine builds the serial hierarchy (shards 0) or a sharded engine.
func playEngine(tb testing.TB, shards int) cache.Engine {
	tb.Helper()
	ec := testEval()
	cfg := cache.Config{HOCBytes: ec.HOCBytes, DCBytes: ec.DCBytes}
	var eng cache.Engine
	var err error
	if shards == 0 {
		eng, err = cache.New(cfg)
	} else {
		eng, err = cache.NewSharded(cfg, shards)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// replayOutcome is everything a replay decided, in comparable form.
type replayOutcome struct {
	metrics    cache.Metrics
	diags      []EpochDiag
	switches   int64
	checkpoint string
}

func outcomeOf(tb testing.TB, c *Controller) replayOutcome {
	tb.Helper()
	st := c.CheckpointState()
	st.LearningNS = 0 // wall time: the one field two identical replays differ in
	blob, err := json.Marshal(st)
	if err != nil {
		tb.Fatal(err)
	}
	return replayOutcome{
		metrics:    c.Metrics(),
		diags:      c.Diags(),
		switches:   c.Engine().(interface{ ExpertSwitches() int64 }).ExpertSwitches(),
		checkpoint: string(blob),
	}
}

// replay drives a fresh controller over eng: per-request Serve when cuts is
// nil, else Play over consecutive batches of the given lengths (the rest in
// one batch).
func replay(tb testing.TB, m *Model, eng cache.Engine, reqs []trace.Request, cuts []int) replayOutcome {
	tb.Helper()
	c, err := NewController(m, eng, playCfg())
	if err != nil {
		tb.Fatal(err)
	}
	if cuts == nil {
		for _, r := range reqs {
			c.Serve(r)
		}
		return outcomeOf(tb, c)
	}
	for _, k := range cuts {
		k = min(k, len(reqs))
		c.Play(&trace.Trace{Requests: reqs[:k]})
		reqs = reqs[k:]
	}
	c.Play(&trace.Trace{Requests: reqs})
	return outcomeOf(tb, c)
}

// evenCuts cuts n requests into batches of size k.
func evenCuts(n, k int) []int {
	cuts := make([]int, 0, n/k+1)
	for ; n > 0; n -= k {
		cuts = append(cuts, k)
	}
	return cuts
}

// TestPlayMatchesServe: Play, however the trace is cut into batches,
// decides exactly what Serve on each request does — engine metrics, epoch
// decisions, expert switches and the controller's checkpoint — over the
// serial hierarchy and a four-shard engine.
func TestPlayMatchesServe(t *testing.T) {
	m := trainedModel(t)
	reqs := playTrace(t)
	for _, shards := range []int{0, 4} {
		want := replay(t, m, playEngine(t, shards), reqs, nil)
		identified := false
		for _, d := range want.diags {
			identified = identified || d.Rounds > 0
		}
		if len(want.diags) < 10 || !identified {
			t.Fatalf("shards %d: %d epoch decisions, identification ran: %v — the replay misses the boundaries it is meant to cross",
				shards, len(want.diags), identified)
		}
		for _, k := range []int{1, 7, 500, 1000, len(reqs)} {
			if got := replay(t, m, playEngine(t, shards), reqs, evenCuts(len(reqs), k)); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards %d, batches of %d: Play decided\n%+v\nper-request Serve\n%+v", shards, k, got, want)
			}
		}
	}
}

// FuzzControllerPlay cuts one replay into batches at fuzzed positions — one
// byte per batch, small bytes short batches, up to ~8k requests — and
// requires the outcome of per-request Serve.
func FuzzControllerPlay(f *testing.F) {
	m := trainedModel(f)
	reqs := playTrace(f)[:8000]
	want := replay(f, m, playEngine(f, 0), reqs, nil)
	f.Add([]byte{0, 1, 2, 3, 255, 17, 90})
	f.Add([]byte{100, 100, 100, 100, 100, 100, 100, 100})
	f.Add([]byte{17, 0, 0, 0, 0, 0, 0, 0, 0, 200, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		cuts := make([]int, len(data))
		for i, b := range data {
			cuts[i] = 1 + int(b)*int(b)/8
		}
		if got := replay(t, m, playEngine(t, 0), reqs, cuts); !reflect.DeepEqual(got, want) {
			t.Fatalf("cuts %v: Play decided\n%+v\nper-request Serve\n%+v", cuts, got, want)
		}
	})
}
