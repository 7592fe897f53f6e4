package bandit

import (
	"fmt"
	"math"
	"math/rand"
)

// Env is the synthetic Gaussian reward environment of §4.2: deploying arm i
// yields, for every arm j with finite σ²_{ij}, an independent Gaussian sample
// with mean μ_j and variance σ²_{ij}. It is used by the unit tests and the
// side-information ablation benchmarks.
type Env struct {
	Mu     []float64
	Sigma2 [][]float64
	rng    *rand.Rand
}

// NewEnv builds an environment; Mu and Sigma2 dimensions must agree.
func NewEnv(mu []float64, sigma2 [][]float64, seed int64) (*Env, error) {
	if len(mu) != len(sigma2) {
		return nil, fmt.Errorf("bandit: %d means for %d arms", len(mu), len(sigma2))
	}
	return &Env{Mu: mu, Sigma2: sigma2, rng: rand.New(rand.NewSource(seed))}, nil
}

// Sample draws the reward vector observed when arm is deployed. Entries with
// infinite variance are NaN (and ignored by Update through the matching
// Sigma2).
func (e *Env) Sample(arm int) []float64 {
	out := make([]float64, len(e.Mu))
	for j := range out {
		s2 := e.Sigma2[arm][j]
		if math.IsInf(s2, 1) {
			out[j] = math.NaN()
			continue
		}
		out[j] = e.Mu[j] + e.rng.NormFloat64()*math.Sqrt(s2)
	}
	return out
}

// Run starts an identification run over cfg and drives it against env until
// it stops or maxRounds elapse, returning its final state.
func Run(cfg Config, env *Env, maxRounds int) (*State, error) {
	st, err := Start(cfg)
	for err == nil && !st.Done && st.T < maxRounds {
		arm := Next(cfg, st)
		st, err = Update(cfg, st, arm, env.Sample(arm))
	}
	return st, err
}
