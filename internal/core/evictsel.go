package core

import (
	"fmt"

	"darwin/internal/bandit"
	"darwin/internal/cache"
	"darwin/internal/trace"
)

// EvictionSelector implements the paper's §7 future-work direction: applying
// Darwin's online expert-selection machinery to *eviction* decisions. The
// arms are HOC eviction policies; each epoch the selector deploys policies
// over rounds on the live cache (migrating resident objects on each swap via
// Hierarchy.SetHOCEviction), collects the observed objective reward, and
// commits to the identified best policy for the remainder of the epoch.
//
// Eviction policies have no cross-expert structure analogous to the
// admission experts' threshold nesting, so no fictitious samples are
// generated: the bandit runs with standard feedback (infinite off-diagonal
// variances), which the paper's framework also supports. A systematic
// eviction-side predictor is exactly what the paper defers to future work.
type EvictionSelector struct {
	hier *cache.Hierarchy
	cfg  EvictionSelectorConfig

	alg        *bandit.Algorithm
	curArm     int
	epochReqs  int
	roundReqs  int
	roundStart cache.Metrics
	exploiting bool
	choices    []string
}

// EvictionSelectorConfig parameterises the selector.
type EvictionSelectorConfig struct {
	// Epoch, Round mirror the admission controller's online knobs.
	Epoch, Round int
}

// evictionArms are the selector's arms, the HOC eviction policies it chooses
// among. Its reward is OHR, whose per-round variance it takes to be a
// worst-case Bernoulli round's 0.25 scaled by neff, as the admission
// controller scales its own.
var evictionArms = []string{"lru", "s4lru", "lfu", "gdsf"}

const evictionRewardVariance = 0.25 / neff

// NewEvictionSelector wires a selector to a hierarchy.
func NewEvictionSelector(hier *cache.Hierarchy, cfg EvictionSelectorConfig) (*EvictionSelector, error) {
	if hier == nil {
		return nil, fmt.Errorf("core: nil hierarchy")
	}
	if cfg.Epoch <= 0 || cfg.Round <= 0 || cfg.Round*(len(evictionArms)+1) > cfg.Epoch {
		return nil, fmt.Errorf("core: epoch %d too short for %d policies at round %d",
			cfg.Epoch, len(evictionArms), cfg.Round)
	}
	s := &EvictionSelector{hier: hier, cfg: cfg}
	if err := s.startEpoch(); err != nil {
		return nil, err
	}
	return s, nil
}

// startEpoch (re)initialises the bandit with standard feedback.
func (s *EvictionSelector) startEpoch() error {
	own := make([]float64, len(evictionArms))
	for i := range own {
		own[i] = evictionRewardVariance
	}
	alg, err := bandit.New(bandit.Config{
		Sigma2:          bandit.StandardSigma2(own),
		Delta:           delta,
		StabilityRounds: stabilityRounds,
		MaxRounds:       s.cfg.Epoch/s.cfg.Round - 1,
	})
	if err != nil {
		return err
	}
	s.alg = alg
	s.exploiting = false
	s.epochReqs = 0
	s.roundReqs = 0
	s.curArm = alg.NextArm()
	if err := s.hier.SetHOCEviction(evictionArms[s.curArm]); err != nil {
		return err
	}
	s.roundStart = s.hier.Metrics()
	return nil
}

// Serve processes one request, advancing the selection state machine.
func (s *EvictionSelector) Serve(r trace.Request) cache.Result {
	res := s.hier.Serve(r)
	s.epochReqs++
	if !s.exploiting {
		s.roundReqs++
		if s.roundReqs >= s.cfg.Round {
			s.finishRound()
		}
	}
	if s.epochReqs >= s.cfg.Epoch {
		s.choices = append(s.choices, s.Deployed())
		_ = s.startEpoch() // the arms are valid policy names; cannot fail
	}
	return res
}

func (s *EvictionSelector) finishRound() {
	round := s.hier.Metrics().Sub(s.roundStart)
	rewards := make([]float64, len(evictionArms))
	rewards[s.curArm] = OHRObjective{}.Reward(round)
	if err := s.alg.Update(s.curArm, rewards); err != nil {
		s.exploiting = true
		return
	}
	if s.alg.Stopped() {
		best := s.alg.Recommendation()
		_ = s.hier.SetHOCEviction(evictionArms[best])
		s.curArm = best
		s.exploiting = true
		return
	}
	next := s.alg.NextArm()
	if next != s.curArm {
		_ = s.hier.SetHOCEviction(evictionArms[next])
		s.curArm = next
	}
	s.roundStart = s.hier.Metrics()
	s.roundReqs = 0
}

// Deployed returns the currently deployed eviction policy name.
func (s *EvictionSelector) Deployed() string { return evictionArms[s.curArm] }

// Exploiting reports whether identification has finished for this epoch.
func (s *EvictionSelector) Exploiting() bool { return s.exploiting }

// Choices returns the policy committed to at the end of each completed
// epoch.
func (s *EvictionSelector) Choices() []string { return append([]string(nil), s.choices...) }

// Metrics returns the hierarchy's metrics.
func (s *EvictionSelector) Metrics() cache.Metrics { return s.hier.Metrics() }
