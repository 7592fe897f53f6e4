package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/bandit"
	"darwin/internal/cache"
	"darwin/internal/features"
	"darwin/internal/trace"
)

// Phase names the online controller's state within an epoch (Figure 3,
// Step 2); the name is what a snapshot records.
type Phase string

// Online phases.
const (
	// PhaseWarmup is feature estimation over the first N_warmup requests.
	PhaseWarmup Phase = "warmup"
	// PhaseIdentify is bandit best-expert identification over rounds.
	PhaseIdentify Phase = "identify"
	// PhaseExploit deploys the identified expert for the rest of the epoch.
	PhaseExploit Phase = "exploit"
)

// OnlineConfig parameterises the online selection loop.
type OnlineConfig struct {
	// Epoch is N_e, the epoch length in requests.
	Epoch int
	// Warmup is N_warmup, the feature-estimation prefix of each epoch.
	Warmup int
	// Round is N_round, the requests per bandit round.
	Round int
	// StabilityRounds is the practical stop (same best arm this many
	// consecutive rounds); 0 disables it.
	StabilityRounds int
	// DisableSideInfo replaces cross-expert fictitious samples with standard
	// bandit feedback (ablation): only the deployed arm's reward is used.
	DisableSideInfo bool
}

// The learner's fixed constants. Both bandits (the admission controller's
// and the EvictionSelector's) run at failure probability delta, and stop on
// the paper's practical rule after stabilityRounds rounds with one best arm
// unless OnlineConfig.StabilityRounds says otherwise. neff is the effective
// number of independent reward samples per round: consecutive requests are
// correlated through the cache state, so neff ≪ N_round, and the per-request
// indicator variances σ²_ij are divided by it to give round-level sample
// variances; varFloor keeps every variance positive.
const (
	delta           = 0.05
	neff            = 50
	varFloor        = 1e-4
	stabilityRounds = 5
)

// DefaultOnlineConfig returns the scaled defaults of DESIGN.md §5:
// N_e=200k, N_warmup=6k (3%), N_round=1k (0.5%).
func DefaultOnlineConfig() OnlineConfig {
	return OnlineConfig{
		Epoch:           200_000,
		Warmup:          6_000,
		Round:           1_000,
		StabilityRounds: stabilityRounds,
	}
}

func (c OnlineConfig) validate() error {
	if c.Epoch <= 0 || c.Warmup <= 0 || c.Round <= 0 {
		return fmt.Errorf("core: epoch/warmup/round must be positive (%d/%d/%d)", c.Epoch, c.Warmup, c.Round)
	}
	if c.Warmup+2*c.Round > c.Epoch {
		return fmt.Errorf("core: epoch %d too short for warmup %d + 2 rounds of %d", c.Epoch, c.Warmup, c.Round)
	}
	return nil
}

// maxDiags bounds the controller's epoch log: it keeps the newest maxDiags
// epochs' decisions. Every checkpoint and /state frame carries the log, at
// about 120 B an epoch, and a node runs thousands of epochs a day. No
// report, example or test reads more than a few dozen epochs of one run.
const maxDiags = 256

// EpochDiag records one epoch's online decisions for the component studies
// (Figures 5b–5d).
type EpochDiag struct {
	// Epoch is the 0-based epoch number.
	Epoch int
	// Cluster is the matched cluster.
	Cluster int
	// SetSize is the size of the cluster's expert set.
	SetSize int
	// Rounds is the number of bandit rounds used (0 when the set was a
	// singleton).
	Rounds int
	// StopReason is the bandit's stop reason ("stability", "threshold",
	// "max-rounds", "singleton", or "epoch-end").
	StopReason string
	// Chosen is the deployed expert after identification.
	Chosen cache.Expert
}

// Controller drives Darwin's online phase over a cache engine — the serial
// Hierarchy in simulation, or a Sharded engine behind the concurrent proxy.
// The cache Serve itself runs at the engine's concurrency (shard-parallel for
// Sharded). What the controller adds per request depends on the phase: during
// warm-up and identification the state machine advances under mu; in
// PhaseExploit — the rest of the epoch, most of it — a request is one atomic
// decrement of exploitLeft and touches mu only if it is the one that
// completes the epoch. Play, the serial replay, pays that once per run of
// requests rather than once per request, and hands the run to the engine
// whole. Expert deployments at warm-up, round, and epoch boundaries
// broadcast to every shard through Engine.SetExpert.
//
// Lock order: mu, then shard mutexes in ascending index order (SetExpert,
// Metrics and playLocked's serves run under mu; Play's exploit runs hold
// every shard mutex per chunk and no mu).
type Controller struct {
	model *Model
	eng   cache.Engine
	cfg   OnlineConfig
	// run is eng as a runServer, or nil when eng serves request by request
	// only; set once, by NewController.
	run runServer

	// exploitLeft is the steady state's only per-request word: how many more
	// serves the current epoch takes while the phase is PhaseExploit. It is
	// stored (positive) under mu when exploit is entered or restored, and
	// decremented without mu by Serve (and by Play, a run at a time); a
	// decrement that leaves it positive has counted that serve into the
	// epoch and is done. Zero or less means "take mu": either the phase is
	// not exploit, or every serve of the epoch but its last is counted and
	// the next holder of mu is that last one.
	exploitLeft atomic.Int64

	// mu serializes the online state machine: everything below it. st is
	// the state machine itself, the struct a snapshot is a deep copy of,
	// with two differences: st.EpochReqs stands still in exploit, where
	// exploitLeft carries the count (epochServesLocked reads either), and
	// st.Bandit is always nil, since the bandit's state is alg's.
	mu        sync.Mutex
	st        ControllerState     // guarded by mu
	alg       *bandit.Algorithm   // the identification run; guarded by mu
	extractor *features.Extractor // warm-up feature estimator; guarded by mu
}

// NewController wires a trained model to a cache engine (a *cache.Hierarchy
// for serial replay, or a *cache.Sharded for the concurrent data plane).
func NewController(model *Model, eng cache.Engine, cfg OnlineConfig) (*Controller, error) {
	if model == nil || eng == nil {
		return nil, fmt.Errorf("core: nil model or engine")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ex, err := features.NewExtractor(model.FeatureCfg)
	if err != nil {
		return nil, err
	}
	// The first warm-up runs under the grid's first expert.
	eng.SetExpert(model.Experts[0])
	run, _ := eng.(runServer)
	return &Controller{
		model:     model,
		eng:       eng,
		cfg:       cfg,
		run:       run,
		st:        ControllerState{Phase: PhaseWarmup},
		extractor: ex,
	}, nil
}

// runServer is an engine that serves a run of requests in one call, as Serve
// on each would: cache.Sharded takes its shard mutexes once per chunk of the
// run instead of once per request, and cache.Hierarchy loops.
type runServer interface {
	ServeRun(reqs []trace.Request)
}

// Phase returns the current phase.
func (c *Controller) Phase() Phase {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Phase
}

// Diags returns the per-epoch diagnostics of the newest maxDiags epochs,
// oldest first (including the current epoch once identification has
// finished).
func (c *Controller) Diags() []EpochDiag {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]EpochDiag(nil), c.st.Diags...)
}

// LearningDuration returns the cumulative wall time spent in learning
// operations (cluster lookup, Σ construction, bandit solves) — the work §6.4
// describes as off the request fast path, occurring only at warm-up end and
// round boundaries.
func (c *Controller) LearningDuration() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.st.LearningNS)
}

// Engine returns the controlled cache engine.
func (c *Controller) Engine() cache.Engine { return c.eng }

// Concurrent reports whether the controller may be driven from multiple
// goroutines at once: true when the underlying engine is concurrency-safe
// (the state machine itself is: an atomic count in exploit, mu elsewhere).
func (c *Controller) Concurrent() bool { return c.eng.Concurrent() }

// Name identifies the scheme ("darwin").
func (c *Controller) Name() string { return "darwin" }

// Metrics returns the engine's accumulated metrics.
func (c *Controller) Metrics() cache.Metrics { return c.eng.Metrics() }

// Lookup probes residency without mutating cache or controller state
// (server.Decider): the controller's state machine advances only on
// committed Serve calls, so failed origin fetches never consume warm-up or
// round budget.
func (c *Controller) Lookup(id uint64) cache.Result { return c.eng.Lookup(id) }

// Serve processes one request through the cache and advances the controller
// state machine. The cache access runs at the engine's own concurrency. In
// PhaseExploit the bookkeeping is the single atomic decrement below; every
// other request — warm-up, identification, and the one that completes an
// epoch — goes through serveLocked.
//
// Under any interleaving every Serve is counted into exactly one epoch and
// an epoch is exactly cfg.Epoch serves: exploit is entered with exploitLeft =
// cfg.Epoch − serves so far, all but one of that many decrements come back
// positive, and each of those is a serve of this epoch; any other decrement
// counted nothing, and its serve is counted under mu — the first of them as
// the epoch's last (exploit does not look at the request, so which serve
// that is does not matter), the rest into the next epoch.
func (c *Controller) Serve(r trace.Request) cache.Result {
	res := c.eng.Serve(r)
	if c.exploitLeft.Add(-1) <= 0 {
		c.serveLocked(r)
	}
	return res
}

// serveLocked is every Serve that is not a steady-state exploit serve.
func (c *Controller) serveLocked(r trace.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stepLocked(r)
}

// stepLocked advances the state machine by one serve of r, already served
// by the engine, that did not count itself lock-free: Serve's and Play's one
// step function.
func (c *Controller) stepLocked(r trace.Request) {
	if c.st.Phase == PhaseExploit {
		// Exploit may have been entered (or restored) while this serve
		// waited for mu: then it joins the epoch the way the lock-free path
		// does. Otherwise the count was already spent, and this serve is the
		// one the epoch is waiting for.
		if c.exploitLeft.Add(-1) > 0 {
			return
		}
		c.st.EpochReqs = c.cfg.Epoch - 1
	}
	c.st.EpochReqs++
	switch c.st.Phase {
	case PhaseWarmup:
		c.extractor.Observe(r)
		if c.st.EpochReqs >= c.cfg.Warmup {
			//lint:ignore determinism learning time is a measurement (LearningDuration); no decision reads it
			start := time.Now()
			c.finishWarmupLocked()
			//lint:ignore determinism learning time is a measurement (LearningDuration); no decision reads it
			c.st.LearningNS += time.Since(start).Nanoseconds()
		}
	case PhaseIdentify:
		c.st.RoundReqs++
		if c.st.RoundReqs >= c.cfg.Round {
			//lint:ignore determinism learning time is a measurement (LearningDuration); no decision reads it
			start := time.Now()
			c.finishRoundLocked()
			//lint:ignore determinism learning time is a measurement (LearningDuration); no decision reads it
			c.st.LearningNS += time.Since(start).Nanoseconds()
		}
	}
	switch {
	case c.st.EpochReqs >= c.cfg.Epoch:
		c.finishEpochLocked()
	case c.st.Phase == PhaseExploit:
		// Exploit was just entered: the rest of the epoch is counted
		// lock-free.
		c.exploitLeft.Store(int64(c.cfg.Epoch - c.st.EpochReqs))
	}
}

// epochServesLocked returns how many serves the current epoch has counted.
// In exploit that is never the whole epoch: the last serve counts itself
// under mu and rolls the epoch in the same critical section.
func (c *Controller) epochServesLocked() int {
	if c.st.Phase != PhaseExploit {
		return c.st.EpochReqs
	}
	return c.cfg.Epoch - int(max(c.exploitLeft.Load(), 1))
}

// Play serves an entire trace: exactly what Serve on each request in order
// does, in runs. An exploit run reserves its serves with one
// compare-and-swap and then hands them to the engine in one ServeRun call
// (request by request on an engine without one); any other run holds mu
// and steps the state machine per request, until the trace ends or exploit
// is entered with more than one serve left.
func (c *Controller) Play(tr *trace.Trace) {
	for reqs := tr.Requests; len(reqs) > 0; {
		if k := c.reserveExploit(len(reqs)); k > 0 {
			c.serveRun(reqs[:k])
			reqs = reqs[k:]
			continue
		}
		reqs = reqs[c.playLocked(reqs):]
	}
}

// serveRun serves an exploit run on the engine.
func (c *Controller) serveRun(reqs []trace.Request) {
	if c.run != nil {
		c.run.ServeRun(reqs)
		return
	}
	for _, r := range reqs {
		c.eng.Serve(r)
	}
}

// reserveExploit counts up to n serves into the current exploit epoch at
// once, and returns how many. It is Serve's decrement taken k times in one
// step: all k come back positive, and the epoch's last serve is never among
// them, so that one still rolls the epoch under mu. 0 means "take mu".
func (c *Controller) reserveExploit(n int) int {
	for {
		left := c.exploitLeft.Load()
		k := min(int64(n), left-1)
		if k <= 0 {
			return 0
		}
		if c.exploitLeft.CompareAndSwap(left, left-k) {
			return int(k)
		}
	}
}

// playLocked serves reqs under mu, stepping the state machine after each,
// and returns how many it served: at least one, and it stops early once
// exploit is entered with more than one serve left, so mu is held for at
// most one warm-up or identification run. The engine serves under mu,
// which is the mu → shard-mutex order SetExpert and Metrics already take.
func (c *Controller) playLocked(reqs []trace.Request) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range reqs {
		c.eng.Serve(r)
		c.stepLocked(r)
		if c.st.Phase == PhaseExploit && c.exploitLeft.Load() > 1 {
			return i + 1
		}
	}
	return len(reqs)
}

// finishWarmupLocked performs cluster lookup and starts identification.
func (c *Controller) finishWarmupLocked() {
	feat := c.extractor.Vector()
	c.st.Extended = c.extractor.Extended()
	c.st.Prof = NewSizeProfile(c.extractor.SizeDistribution(), c.model.FeatureCfg.MinSize, c.model.FeatureCfg.MaxSize)
	c.st.ClusterID, c.st.Set = c.model.Lookup(feat)
	// The feature tree is deleted after the collection stage (§6.4).
	c.extractor.Reset()

	if len(c.st.Set) < 2 {
		chosen := c.model.Experts[c.st.Set[0]]
		c.eng.SetExpert(chosen)
		c.st.Phase = PhaseExploit
		c.logDiagLocked(EpochDiag{
			Epoch: c.st.Epoch, Cluster: c.st.ClusterID, SetSize: len(c.st.Set),
			StopReason: "singleton", Chosen: chosen,
		})
		return
	}

	alg, err := bandit.New(banditConfig(c.cfg, buildSigma(c.model, c.cfg, c.st.Set, c.st.ClusterID, c.st.Extended)))
	if err != nil {
		// Degenerate side information; fall back to the cluster's best mean
		// expert for the epoch.
		best := c.st.Set[0]
		for _, ei := range c.st.Set {
			if c.model.MeanReward[c.st.ClusterID][ei] > c.model.MeanReward[c.st.ClusterID][best] {
				best = ei
			}
		}
		chosen := c.model.Experts[best]
		c.eng.SetExpert(chosen)
		c.st.Phase = PhaseExploit
		c.logDiagLocked(EpochDiag{
			Epoch: c.st.Epoch, Cluster: c.st.ClusterID, SetSize: len(c.st.Set),
			StopReason: "degenerate-sigma", Chosen: chosen,
		})
		return
	}
	c.alg = alg
	c.st.CurArm = alg.NextArm()
	c.eng.SetExpert(c.model.Experts[c.st.Set[c.st.CurArm]])
	c.st.RoundStart = c.eng.Metrics()
	c.st.RoundReqs = 0
	c.st.Phase = PhaseIdentify
}

// banditConfig derives the identification run's bandit configuration from
// the online config: identification starts at warm-up end, so it can run at
// most the epoch's remaining (Epoch − Warmup) / Round rounds. Checkpoint
// restore reuses it so a restored run is governed by exactly the constants
// of the original.
func banditConfig(cfg OnlineConfig, sigma2 [][]float64) bandit.Config {
	return bandit.Config{
		Sigma2:          sigma2,
		Delta:           delta,
		StabilityRounds: cfg.StabilityRounds,
		MaxRounds:       (cfg.Epoch - cfg.Warmup) / cfg.Round,
	}
}

// buildSigma constructs the side-information matrix over a cluster's expert
// set using the prediction networks and the cluster's prior hit rates
// (§4.1), scaled to round-level sample variances. Warm-up's end and
// checkpoint restore (which rebuilds Σ from the snapshotted set, cluster and
// features) share it.
func buildSigma(model *Model, cfg OnlineConfig, set []int, clusterID int, extended []float64) [][]float64 {
	n := len(set)
	sigma2 := make([][]float64, n)
	for a := 0; a < n; a++ {
		sigma2[a] = make([]float64, n)
		i := set[a]
		prior := model.MeanOHR[clusterID][i]
		for b := 0; b < n; b++ {
			j := set[b]
			if cfg.DisableSideInfo && a != b {
				sigma2[a][b] = math.Inf(1)
				continue
			}
			v, ok := model.SideVariance(i, j, prior, extended)
			if !ok && a != b {
				sigma2[a][b] = math.Inf(1)
				continue
			}
			sigma2[a][b] = v/neff + varFloor
		}
	}
	return sigma2
}

// roundRewards is a bandit round's reward vector over st.Set, from the
// round's metrics: the deployed arm's real reward, and each other arm's
// fictitious sample from the cross-expert predictors (left 0 without side
// information, whose +Inf variances make the bandit ignore it). It reads
// only its arguments.
func roundRewards(m *Model, cfg OnlineConfig, st *ControllerState, round cache.Metrics) []float64 {
	obsOHR := round.OHR()
	rewards := make([]float64, len(st.Set))
	deployed := st.Set[st.CurArm]
	for b := range rewards {
		switch {
		case b == st.CurArm:
			rewards[b] = m.Objective.Reward(round)
		case !cfg.DisableSideInfo:
			if est, ok := m.EstimateReward(deployed, st.Set[b], obsOHR, st.Extended, st.Prof); ok {
				rewards[b] = est
			}
		}
	}
	return rewards
}

// finishRoundLocked closes a bandit round: feeds the bandit the round's
// rewards, then advances it to its next arm or deploys its recommendation.
func (c *Controller) finishRoundLocked() {
	rewards := roundRewards(c.model, c.cfg, &c.st, c.eng.Metrics().Sub(c.st.RoundStart))
	if err := c.alg.Update(c.st.CurArm, rewards); err != nil {
		// Cannot happen with a well-formed controller; deploy best-known.
		c.deployRecommendationLocked("update-error")
		return
	}
	if c.alg.Stopped() {
		c.deployRecommendationLocked(c.alg.StopReason())
		return
	}
	c.st.CurArm = c.alg.NextArm()
	c.eng.SetExpert(c.model.Experts[c.st.Set[c.st.CurArm]])
	c.st.RoundStart = c.eng.Metrics()
	c.st.RoundReqs = 0
}

func (c *Controller) deployRecommendationLocked(reason string) {
	chosen := c.model.Experts[c.st.Set[c.alg.Recommendation()]]
	c.eng.SetExpert(chosen)
	c.st.Phase = PhaseExploit
	c.logDiagLocked(EpochDiag{
		Epoch: c.st.Epoch, Cluster: c.st.ClusterID, SetSize: len(c.st.Set),
		Rounds: c.alg.Rounds(), StopReason: reason, Chosen: chosen,
	})
}

// logDiagLocked appends d to the epoch log, dropping the oldest entry once
// the log holds maxDiags.
func (c *Controller) logDiagLocked(d EpochDiag) {
	if len(c.st.Diags) == maxDiags {
		c.st.Diags = c.st.Diags[1:]
	}
	c.st.Diags = append(c.st.Diags, d)
}

// finishEpochLocked rolls over to the next epoch's warm-up, keeping the currently
// deployed expert in place for the new warm-up phase.
func (c *Controller) finishEpochLocked() {
	if c.st.Phase == PhaseIdentify {
		// Identification ran out of epoch: deploy the current recommendation
		// and record the truncated run.
		c.deployRecommendationLocked("epoch-end")
	}
	c.st.Epoch++
	c.st.EpochReqs = 0
	c.st.RoundReqs = 0
	c.alg = nil
	c.st.Phase = PhaseWarmup
	c.extractor.Reset()
}
