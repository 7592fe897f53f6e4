package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
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
	Epoch  int // N_e, the epoch length in requests
	Warmup int // N_warmup, the feature-estimation prefix of each epoch
	Round  int // N_round, the requests per bandit round
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
	Epoch   int // 0-based
	Cluster int // the matched cluster
	SetSize int // the size of the cluster's expert set
	Rounds  int // bandit rounds used (0 when identification did not run)
	// StopReason is the bandit's stop reason ("stability", "threshold",
	// "max-rounds"), why identification did not run ("singleton",
	// "degenerate-sigma"), or "epoch-end" when it ran out of epoch.
	StopReason string
	Chosen     cache.Expert // the expert deployed after identification
}

// Controller drives Darwin's online phase over a cache engine — the serial
// Hierarchy in simulation, or a Sharded engine behind the concurrent proxy.
// It is the shell around step, the pure transition function: it counts
// serves to the next boundary — the end of warm-up, of a bandit round, of
// the epoch — and there calls step under mu, applies its action through
// Engine.SetExpert, and adds the call's time to LearningNS. The cache Serve
// runs at the engine's own concurrency (shard-parallel for Sharded) outside
// mu; only the count is under it. Play, the serial replay, hands each run
// between boundaries to the engine whole under mu and counts it at once.
//
// Lock order: mu, then shard mutexes in ascending index order (SetExpert,
// Metrics and playLocked's runs take them under mu).
type Controller struct {
	model *Model
	eng   cache.Engine
	cfg   OnlineConfig
	// run is eng as a runServer, or nil when eng serves request by request
	// only; set once, by NewController.
	run runServer

	// mu serializes the shell. st is the state step advances and a snapshot
	// copies.
	mu        sync.Mutex
	st        ControllerState     // guarded by mu
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

// Concurrent reports whether the controller may be driven from multiple
// goroutines at once: true when the underlying engine is concurrency-safe
// (the state machine itself is: it counts under mu).
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
// state machine. The cache access runs at the engine's own concurrency,
// outside mu; the count, and the step at a boundary it reaches, run under
// mu. Every Serve is counted into exactly one epoch, and an epoch is exactly
// cfg.Epoch serves, whatever the interleaving: each count is one serve.
func (c *Controller) Serve(r trace.Request) cache.Result {
	res := c.eng.Serve(r)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.countLocked([]trace.Request{r})
	return res
}

// countLocked counts reqs, served by the engine, into the epoch, and steps
// at the boundary they reach. reqs run at most to the next boundary
// (playLocked).
func (c *Controller) countLocked(reqs []trace.Request) {
	c.st.EpochReqs += len(reqs)
	switch c.st.Phase {
	case PhaseWarmup:
		for _, r := range reqs {
			c.extractor.Observe(r)
		}
		if c.st.EpochReqs >= c.cfg.Warmup {
			c.stepLocked(event{kind: warmupDone, extended: c.extractor.Extended()})
			c.extractor.Reset() // the feature tree is deleted after the collection stage (§6.4)
		}
	case PhaseIdentify:
		c.st.RoundReqs += len(reqs)
		if c.st.RoundReqs >= c.cfg.Round {
			c.stepLocked(event{kind: roundDone, round: c.eng.Metrics().Sub(c.st.RoundStart)})
		}
	}
	if c.st.EpochReqs >= c.cfg.Epoch {
		c.stepLocked(event{kind: epochDone})
	}
}

// stepLocked runs step and its action, timed into LearningNS. A round step
// opens is measured from the engine's metrics once its arm is deployed, so
// serves that raced the step under the previous expert do not count toward
// it. The shell raises only events the phase expects: step never refuses.
func (c *Controller) stepLocked(ev event) {
	//lint:ignore determinism learning time is a measurement (LearningDuration); no decision reads it
	start := time.Now()
	next, act, err := step(c.model, c.cfg, c.st, ev)
	if err != nil {
		panic(err)
	}
	if act.deploy {
		c.eng.SetExpert(act.expert)
	}
	if next.Phase == PhaseIdentify {
		next.RoundStart = c.eng.Metrics()
	}
	//lint:ignore determinism learning time is a measurement (LearningDuration); no decision reads it
	next.LearningNS += time.Since(start).Nanoseconds()
	c.st = next
}

// Play serves an entire trace: exactly what Serve on each request in order
// does, in runs that end at the state machine's boundaries, one mu critical
// section a run. The engine serves each run in one ServeRun call (request by
// request on an engine without one).
func (c *Controller) Play(tr *trace.Trace) {
	for reqs := tr.Requests; len(reqs) > 0; {
		reqs = reqs[c.playLocked(reqs):]
	}
}

// playLocked serves under mu the run from the head of reqs to the next
// boundary (in exploit, the epoch's end), counts it, and returns its length.
// Serving under mu is the mu → shard-mutex order SetExpert and Metrics
// already take; a warm-up run is observed after it is served, since the
// extractor reads only requests.
func (c *Controller) playLocked(reqs []trace.Request) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.cfg.Epoch - c.st.EpochReqs // exploit runs to the epoch's end
	switch c.st.Phase {
	case PhaseWarmup:
		n = c.cfg.Warmup - c.st.EpochReqs
	case PhaseIdentify:
		n = min(n, c.cfg.Round-c.st.RoundReqs)
	}
	run := reqs[:min(len(reqs), n)]
	if c.run != nil {
		c.run.ServeRun(run)
	} else {
		for _, r := range run {
			c.eng.Serve(r)
		}
	}
	c.countLocked(run)
	return len(run)
}

// eventKind names the boundaries at which the controller learns (§6.4): the
// end of warm-up, of a bandit round, and of an epoch.
type eventKind string

const (
	warmupDone eventKind = "warm-up"
	roundDone  eventKind = "round"
	epochDone  eventKind = "epoch"
)

// event is one boundary the controller reached. At warm-up's end, extended
// is the warm-up's feature vector with its size distribution appended
// (features.Extractor.Extended); at a round's end, round is the engine's
// metrics over the round.
type event struct {
	kind     eventKind
	extended []float64
	round    cache.Metrics
}

// action is what a step asks of the engine: deploy expert, or nothing.
type action struct {
	deploy bool
	expert cache.Expert
}

// step is the controller's transition function: the state st moves to when
// ev happens, and the action that goes with it. It reads only its arguments
// — no engine, clock or lock — and writes none of them. An identify state
// carries its run's Σ and a bandit state that fits it: startIdentify puts
// them there, or fit on restore, and nothing else checks them. An event the
// phase does not expect (a round's end outside identification, warm-up's
// end outside warm-up), or a round the bandit refuses, is refused: st comes
// back unchanged with an error.
func step(m *Model, cfg OnlineConfig, st ControllerState, ev event) (ControllerState, action, error) {
	switch {
	case ev.kind == warmupDone && st.Phase == PhaseWarmup:
		return startIdentify(m, cfg, st, ev)
	case ev.kind == roundDone && st.Phase == PhaseIdentify:
		return closeRound(m, cfg, st, ev.round)
	case ev.kind == epochDone:
		next, act := st, action{}
		if st.Phase == PhaseIdentify {
			// Identification ran out of epoch: deploy the current
			// recommendation and record the truncated run.
			next, act, _ = exploit(m, st, st.Set[st.Bandit.Recommendation()], st.Bandit.T, "epoch-end")
		}
		// The deployed expert stays in place for the next warm-up.
		next.Epoch++
		next.EpochReqs, next.RoundReqs = 0, 0
		next.Phase = PhaseWarmup
		return next, act, nil
	}
	return st, action{}, fmt.Errorf("core: a %s event in %s", ev.kind, st.Phase)
}

// startIdentify ends warm-up: it matches the features to a cluster and opens
// identification among the cluster's expert set — or, for a one-expert set
// or degenerate side information, exploits one expert for the epoch.
func startIdentify(m *Model, cfg OnlineConfig, st ControllerState, ev event) (ControllerState, action, error) {
	fc := m.FeatureCfg
	st.Extended = ev.extended
	st.Prof = NewSizeProfile(ev.extended[fc.VectorLen():], fc.MinSize, fc.MaxSize)
	st.ClusterID, st.Set = m.Lookup(ev.extended[:fc.VectorLen()])
	if len(st.Set) < 2 {
		return exploit(m, st, st.Set[0], 0, "singleton")
	}
	sigma := buildSigma(m, cfg, st.Set, st.ClusterID, st.Extended)
	bc := banditConfig(cfg, sigma)
	b, err := bandit.Start(bc)
	if err != nil {
		// Degenerate side information: the cluster's best mean expert.
		best := st.Set[0]
		for _, ei := range st.Set {
			if m.MeanReward[st.ClusterID][ei] > m.MeanReward[st.ClusterID][best] {
				best = ei
			}
		}
		return exploit(m, st, best, 0, "degenerate-sigma")
	}
	st.sigma, st.Bandit = sigma, b
	return openRound(m, bc, st)
}

// closeRound feeds the bandit the rewards of a round whose engine metrics
// are round, then opens the next round or, once the bandit stops, exploits
// its recommendation.
func closeRound(m *Model, cfg OnlineConfig, st ControllerState, round cache.Metrics) (ControllerState, action, error) {
	bc := banditConfig(cfg, st.sigma)
	b, err := bandit.Update(bc, st.Bandit, st.CurArm, roundRewards(m, cfg, &st, round))
	if err != nil {
		return st, action{}, err
	}
	if b.Done {
		return exploit(m, st, st.Set[b.Recommendation()], b.T, b.Reason)
	}
	st.Bandit = b
	return openRound(m, bc, st)
}

// openRound deploys the bandit's next arm; the shell then reads its
// RoundStart.
func openRound(m *Model, bc bandit.Config, st ControllerState) (ControllerState, action, error) {
	st.Phase = PhaseIdentify
	st.CurArm = bandit.Next(bc, st.Bandit)
	st.RoundReqs = 0
	return st, action{deploy: true, expert: m.Experts[st.Set[st.CurArm]]}, nil
}

// exploit deploys expert for the rest of the epoch and logs the decision,
// dropping the oldest entry of a full log; the new log is a copy. It never
// fails.
func exploit(m *Model, st ControllerState, expert, rounds int, reason string) (ControllerState, action, error) {
	chosen := m.Experts[expert]
	st.Phase = PhaseExploit
	st.Bandit, st.sigma = nil, nil
	st.Diags = append(slices.Clip(st.Diags[max(0, len(st.Diags)-maxDiags+1):]), EpochDiag{
		Epoch: st.Epoch, Cluster: st.ClusterID, SetSize: len(st.Set),
		Rounds: rounds, StopReason: reason, Chosen: chosen,
	})
	return st, action{deploy: true, expert: chosen}, nil
}

// banditConfig derives the identification run's bandit configuration from
// the online config: identification starts at warm-up end, so it can run at
// most the epoch's remaining (Epoch − Warmup) / Round rounds.
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
// (§4.1), scaled to round-level sample variances. It evaluates the
// predictors over every pair of the set, so it runs once per identification
// run: at warm-up's end, or in fit on restore.
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
