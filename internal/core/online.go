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
// Step 2).
type Phase int

// Online phases.
const (
	// PhaseWarmup is feature estimation over the first N_warmup requests.
	PhaseWarmup Phase = iota
	// PhaseIdentify is bandit best-expert identification over rounds.
	PhaseIdentify
	// PhaseExploit deploys the identified expert for the rest of the epoch.
	PhaseExploit
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseWarmup:
		return "warmup"
	case PhaseIdentify:
		return "identify"
	case PhaseExploit:
		return "exploit"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// OnlineConfig parameterises the online selection loop.
type OnlineConfig struct {
	// Epoch is N_e, the epoch length in requests.
	Epoch int
	// Warmup is N_warmup, the feature-estimation prefix of each epoch.
	Warmup int
	// Round is N_round, the requests per bandit round.
	Round int
	// Delta is the bandit failure probability δ.
	Delta float64
	// StabilityRounds is the practical stop (same best arm this many
	// consecutive rounds); 0 disables it.
	StabilityRounds int
	// MaxRounds caps the identification phase (safety; the epoch budget also
	// caps it). 0 derives a cap from the epoch length.
	MaxRounds int
	// Neff is the effective number of independent reward samples per round,
	// used to scale the per-request indicator variances σ²_ij down to
	// round-level sample variances. Consecutive requests are correlated
	// through the cache state, so Neff ≪ Round (default 50).
	Neff float64
	// VarFloor keeps all variances positive (default 1e-4).
	VarFloor float64
	// InitialExpert is deployed during the first warm-up; zero value selects
	// the model's first expert.
	InitialExpert cache.Expert
	// UniformBandit switches the bandit to round-robin deployment (ablation).
	UniformBandit bool
	// DisableSideInfo replaces cross-expert fictitious samples with standard
	// bandit feedback (ablation): only the deployed arm's reward is used.
	DisableSideInfo bool
}

// DefaultOnlineConfig returns the scaled defaults of DESIGN.md §5:
// N_e=200k, N_warmup=6k (3%), N_round=1k (0.5%).
func DefaultOnlineConfig() OnlineConfig {
	return OnlineConfig{
		Epoch:           200_000,
		Warmup:          6_000,
		Round:           1_000,
		Delta:           0.05,
		StabilityRounds: 5,
		Neff:            50,
		VarFloor:        1e-4,
	}
}

func (c OnlineConfig) validate() error {
	if c.Epoch <= 0 || c.Warmup <= 0 || c.Round <= 0 {
		return fmt.Errorf("core: epoch/warmup/round must be positive (%d/%d/%d)", c.Epoch, c.Warmup, c.Round)
	}
	if c.Warmup+2*c.Round > c.Epoch {
		return fmt.Errorf("core: epoch %d too short for warmup %d + 2 rounds of %d", c.Epoch, c.Warmup, c.Round)
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("core: delta %v outside (0,1)", c.Delta)
	}
	return nil
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	if c.Neff <= 0 {
		c.Neff = 50
	}
	if c.VarFloor <= 0 {
		c.VarFloor = 1e-4
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = (c.Epoch - c.Warmup) / c.Round
	}
	return c
}

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
// requests rather than once per request. Expert deployments at warm-up,
// round, and epoch boundaries broadcast to every shard through
// Engine.SetExpert.
type Controller struct {
	model *Model
	eng   cache.Engine
	cfg   OnlineConfig

	// exploitLeft is the steady state's only per-request word: how many more
	// serves the current epoch takes while the phase is PhaseExploit. It is
	// stored (positive) under mu when exploit is entered or restored, and
	// decremented without mu by Serve (and by Play, a run at a time); a
	// decrement that leaves it positive has counted that serve into the
	// epoch and is done. Zero or less means "take mu": either the phase is
	// not exploit, or every serve of the epoch but its last is counted and
	// the next holder of mu is that last one.
	exploitLeft atomic.Int64

	// mu serializes the online state machine: everything below it.
	mu    sync.Mutex
	phase Phase // guarded by mu
	epoch int   // 0-based epoch number; guarded by mu
	// epochReqs counts this epoch's serves through warm-up and
	// identification and stands still in exploit, where exploitLeft carries
	// the count (epochServesLocked reads either); guarded by mu.
	epochReqs int
	extractor *features.Extractor // warm-up feature estimator; guarded by mu
	// The identification run: the cluster's expert set, the bandit over it,
	// the deployed arm and the open round.
	set        []int             // guarded by mu
	alg        *bandit.Algorithm // guarded by mu
	curArm     int               // guarded by mu
	roundStart cache.Metrics     // guarded by mu
	roundReqs  int               // guarded by mu
	// What warm-up learned.
	extended  []float64   // guarded by mu
	prof      SizeProfile // guarded by mu
	clusterID int         // guarded by mu
	diags     []EpochDiag // per-epoch decision log; guarded by mu
	// learningNS is cumulative boundary learning time; guarded by mu.
	learningNS int64
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
	cfg = cfg.withDefaults()
	ex, err := features.NewExtractor(model.FeatureCfg)
	if err != nil {
		return nil, err
	}
	init := cfg.InitialExpert
	if init == (cache.Expert{}) {
		init = model.Experts[0]
	}
	eng.SetExpert(init)
	return &Controller{
		model:     model,
		eng:       eng,
		cfg:       cfg,
		phase:     PhaseWarmup,
		extractor: ex,
	}, nil
}

// Phase returns the current phase.
func (c *Controller) Phase() Phase {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phase
}

// Diags returns per-epoch diagnostics recorded so far (including the current
// epoch once identification has finished).
func (c *Controller) Diags() []EpochDiag {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]EpochDiag(nil), c.diags...)
}

// LearningDuration returns the cumulative wall time spent in learning
// operations (cluster lookup, Σ construction, bandit solves) — the work §6.4
// describes as off the request fast path, occurring only at warm-up end and
// round boundaries.
func (c *Controller) LearningDuration() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.learningNS)
}

// Engine returns the controlled cache engine.
func (c *Controller) Engine() cache.Engine { return c.eng }

// Concurrent reports whether the controller may be driven from multiple
// goroutines at once: true when the underlying engine is concurrency-safe
// (the state machine itself is: an atomic count in exploit, mu elsewhere).
func (c *Controller) Concurrent() bool { return c.eng.Concurrent() }

// Name implements the baselines.Server naming convention.
func (c *Controller) Name() string { return "darwin" }

// Metrics returns the engine's accumulated metrics.
func (c *Controller) Metrics() cache.Metrics { return c.eng.Metrics() }

// ResetMetrics clears the engine's counters (warm-up exclusion).
func (c *Controller) ResetMetrics() { c.eng.ResetMetrics() }

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
	if c.phase == PhaseExploit {
		// Exploit may have been entered (or restored) while this serve
		// waited for mu: then it joins the epoch the way the lock-free path
		// does. Otherwise the count was already spent, and this serve is the
		// one the epoch is waiting for.
		if c.exploitLeft.Add(-1) > 0 {
			return
		}
		c.epochReqs = c.cfg.Epoch - 1
	}
	c.epochReqs++
	switch c.phase {
	case PhaseWarmup:
		c.extractor.Observe(r)
		if c.epochReqs >= c.cfg.Warmup {
			start := time.Now()
			c.finishWarmupLocked()
			c.learningNS += time.Since(start).Nanoseconds()
		}
	case PhaseIdentify:
		c.roundReqs++
		if c.roundReqs >= c.cfg.Round {
			start := time.Now()
			c.finishRoundLocked()
			c.learningNS += time.Since(start).Nanoseconds()
		}
	}
	switch {
	case c.epochReqs >= c.cfg.Epoch:
		c.finishEpochLocked()
	case c.phase == PhaseExploit:
		// Exploit was just entered: the rest of the epoch is counted
		// lock-free.
		c.exploitLeft.Store(int64(c.cfg.Epoch - c.epochReqs))
	}
}

// epochServesLocked returns how many serves the current epoch has counted.
// In exploit that is never the whole epoch: the last serve counts itself
// under mu and rolls the epoch in the same critical section.
func (c *Controller) epochServesLocked() int {
	if c.phase != PhaseExploit {
		return c.epochReqs
	}
	return c.cfg.Epoch - int(max(c.exploitLeft.Load(), 1))
}

// Play serves an entire trace: exactly what Serve on each request in order
// does, in runs. An exploit run reserves its serves with one
// compare-and-swap and then calls only the engine; any other run holds mu
// and steps the state machine per request, until the trace ends or exploit
// is entered with more than one serve left.
func (c *Controller) Play(tr *trace.Trace) {
	for reqs := tr.Requests; len(reqs) > 0; {
		if k := c.reserveExploit(len(reqs)); k > 0 {
			for _, r := range reqs[:k] {
				c.eng.Serve(r)
			}
			reqs = reqs[k:]
			continue
		}
		reqs = reqs[c.playLocked(reqs):]
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
		if c.phase == PhaseExploit && c.exploitLeft.Load() > 1 {
			return i + 1
		}
	}
	return len(reqs)
}

// finishWarmupLocked performs cluster lookup and starts identification.
func (c *Controller) finishWarmupLocked() {
	feat := c.extractor.Vector()
	c.extended = c.extractor.Extended()
	c.prof = NewSizeProfile(c.extractor.SizeDistribution(), c.model.FeatureCfg.MinSize, c.model.FeatureCfg.MaxSize)
	c.clusterID, c.set = c.model.Lookup(feat)
	// The feature tree is deleted after the collection stage (§6.4).
	c.extractor.Reset()

	if len(c.set) < 2 {
		chosen := c.model.Experts[c.set[0]]
		c.eng.SetExpert(chosen)
		c.phase = PhaseExploit
		c.diags = append(c.diags, EpochDiag{
			Epoch: c.epoch, Cluster: c.clusterID, SetSize: len(c.set),
			StopReason: "singleton", Chosen: chosen,
		})
		return
	}

	sigma2 := c.buildSigmaLocked()
	alg, err := bandit.New(banditConfig(c.cfg, sigma2, c.epochReqs))
	if err != nil {
		// Degenerate side information; fall back to the cluster's best mean
		// expert for the epoch.
		best := c.set[0]
		for _, ei := range c.set {
			if c.model.MeanReward[c.clusterID][ei] > c.model.MeanReward[c.clusterID][best] {
				best = ei
			}
		}
		chosen := c.model.Experts[best]
		c.eng.SetExpert(chosen)
		c.phase = PhaseExploit
		c.diags = append(c.diags, EpochDiag{
			Epoch: c.epoch, Cluster: c.clusterID, SetSize: len(c.set),
			StopReason: "degenerate-sigma", Chosen: chosen,
		})
		return
	}
	c.alg = alg
	c.curArm = alg.NextArm()
	c.eng.SetExpert(c.model.Experts[c.set[c.curArm]])
	c.roundStart = c.eng.Metrics()
	c.roundReqs = 0
	c.phase = PhaseIdentify
}

// buildSigmaLocked constructs the side-information matrix over the cluster's
// expert set using the prediction networks and the cluster's prior hit rates
// (§4.1), scaled to round-level sample variances.
func (c *Controller) buildSigmaLocked() [][]float64 {
	return buildSigma(c.model, c.cfg, c.set, c.clusterID, c.extended)
}

// banditConfig derives the identification run's bandit configuration from
// the online config and the requests already consumed this epoch. Checkpoint
// restore reuses it (with epochReqs = Warmup, the value at warm-up end) so a
// restored run is governed by exactly the constants of the original.
func banditConfig(cfg OnlineConfig, sigma2 [][]float64, epochReqs int) bandit.Config {
	maxRounds := cfg.MaxRounds
	if budget := (cfg.Epoch - epochReqs) / cfg.Round; budget < maxRounds {
		maxRounds = budget
	}
	return bandit.Config{
		Sigma2:          sigma2,
		Delta:           cfg.Delta,
		M:               1,
		C:               100,
		StabilityRounds: cfg.StabilityRounds,
		Uniform:         cfg.UniformBandit,
		MaxRounds:       maxRounds,
	}
}

// buildSigma is the pure form of buildSigmaLocked, shared with checkpoint
// restore (which must rebuild Σ from snapshotted set/cluster/features before
// committing any controller state).
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
			sigma2[a][b] = v/cfg.Neff + cfg.VarFloor
		}
	}
	return sigma2
}

// finishRoundLocked closes a bandit round: computes the deployed arm's real reward,
// generates fictitious samples for the other arms, and advances or stops the
// bandit.
func (c *Controller) finishRoundLocked() {
	delta := c.eng.Metrics().Sub(c.roundStart)
	obsOHR := delta.OHR()
	obsReward := c.model.Objective.Reward(delta)
	n := len(c.set)
	rewards := make([]float64, n)
	deployed := c.set[c.curArm]
	for b := 0; b < n; b++ {
		if b == c.curArm {
			rewards[b] = obsReward
			continue
		}
		if c.cfg.DisableSideInfo {
			continue // ignored via +Inf variance
		}
		est, ok := c.model.EstimateReward(deployed, c.set[b], obsOHR, c.extended, c.prof)
		if ok {
			rewards[b] = est
		}
	}
	if err := c.alg.Update(c.curArm, rewards); err != nil {
		// Cannot happen with a well-formed controller; deploy best-known.
		c.deployRecommendationLocked("update-error")
		return
	}
	if c.alg.Stopped() {
		c.deployRecommendationLocked(c.alg.StopReason())
		return
	}
	c.curArm = c.alg.NextArm()
	c.eng.SetExpert(c.model.Experts[c.set[c.curArm]])
	c.roundStart = c.eng.Metrics()
	c.roundReqs = 0
}

func (c *Controller) deployRecommendationLocked(reason string) {
	chosen := c.model.Experts[c.set[c.alg.Recommendation()]]
	c.eng.SetExpert(chosen)
	c.phase = PhaseExploit
	c.diags = append(c.diags, EpochDiag{
		Epoch: c.epoch, Cluster: c.clusterID, SetSize: len(c.set),
		Rounds: c.alg.Rounds(), StopReason: reason, Chosen: chosen,
	})
}

// finishEpochLocked rolls over to the next epoch's warm-up, keeping the currently
// deployed expert in place for the new warm-up phase.
func (c *Controller) finishEpochLocked() {
	if c.phase == PhaseIdentify {
		// Identification ran out of epoch: deploy the current recommendation
		// and record the truncated run.
		c.deployRecommendationLocked("epoch-end")
	}
	c.epoch++
	c.epochReqs = 0
	c.roundReqs = 0
	c.alg = nil
	c.phase = PhaseWarmup
	c.extractor.Reset()
}
