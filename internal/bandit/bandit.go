// Package bandit implements Darwin's best-arm identification algorithm,
// Track and Stop with Side Information (Algorithm 1 of the paper, §4.2).
//
// The setting: K experts (arms); deploying expert i for one round yields a
// real reward for i and *fictitious* reward samples for every other expert j,
// produced by the cross-expert predictors. Each sample Y_j(t) observed while
// arm E_t is deployed is modelled as Gaussian with mean μ_j and a known
// deployment-dependent variance σ²_{E_t,j}, encoded in the side-information
// matrix Σ. An entry of +Inf means "no observation of j while playing i",
// which recovers the standard bandit feedback model — used here for the
// ablation comparing against classical Track and Stop.
//
// The algorithm keeps the variance-weighted estimators of Equation (1),
// solves the allocation program of Equations (2)–(3) each round, deploys the
// most under-played arm relative to the optimal allocation (D-tracking), and
// stops when the information level Z_t = Φ(μ̂_t, T(t)) crosses the threshold
// β_t(δ, Σ) of Theorem 1 — or, as in the paper's evaluation (§6.2), when the
// empirically best arm has been stable for a configurable number of
// consecutive rounds.
//
// A run is a State and pure functions over it: Start returns the first
// state, Next the arm to deploy, Update the state after a round, and
// Config.CheckState checks a stored state against the configuration.
package bandit

import (
	"fmt"
	"math"
)

// Config parameterises the algorithm.
type Config struct {
	// Sigma2 is the K×K side-information matrix: Sigma2[i][j] is the variance
	// of the reward sample for arm j collected while arm i is deployed.
	// +Inf marks unobserved pairs.
	Sigma2 [][]float64
	// Delta is the failure probability δ for the δ-sound stopping rule.
	Delta float64
	// StabilityRounds stops when the same arm has been empirically best for
	// this many consecutive rounds (the paper's practical criterion, §6.2,
	// Figure 5d). 0 disables the practical rule.
	StabilityRounds int
	// MaxRounds force-stops after this many rounds; 0 means unbounded.
	MaxRounds int
}

// The constants of the threshold β_t(δ, Σ) (Theorem 1): rewards are hit
// rates, so |Y| ≤ rewardBound, and concentration is the C of the bound.
const (
	rewardBound   = 1
	concentration = 100
)

// DefaultConfig returns the reproduction defaults: δ=0.05 and the paper's
// 5-round stability rule.
func DefaultConfig(sigma2 [][]float64) Config {
	return Config{Sigma2: sigma2, Delta: 0.05, StabilityRounds: 5}
}

// Validate checks cfg: at least two arms, a square Σ whose entries are all
// positive and whose own-arm variances are finite, and δ in (0,1).
func (cfg Config) Validate() error {
	k := len(cfg.Sigma2)
	if k < 2 {
		return fmt.Errorf("bandit: need at least 2 arms, got %d", k)
	}
	for i, row := range cfg.Sigma2 {
		if len(row) != k {
			return fmt.Errorf("bandit: Sigma2 row %d has %d entries, want %d", i, len(row), k)
		}
		if !(row[i] > 0) || math.IsInf(row[i], 1) {
			return fmt.Errorf("bandit: own-arm variance Sigma2[%d][%d] must be positive and finite", i, i)
		}
		for j, v := range row {
			if !(v > 0) {
				return fmt.Errorf("bandit: Sigma2[%d][%d] = %v must be > 0", i, j, v)
			}
		}
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return fmt.Errorf("bandit: Delta must be in (0,1), got %v", cfg.Delta)
	}
	return nil
}

// Start validates cfg and returns the state an identification run over it
// starts from: no rounds played, no estimates.
func Start(cfg Config) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := len(cfg.Sigma2)
	return &State{
		Plays: make([]int, k),
		SumWY: make([]float64, k),
		Rho:   make([]float64, k),
		Mu:    make([]float64, k),
		Last:  -1,
	}, nil
}

// Next returns the arm to deploy after st (Line 2 and Line 5 of Algorithm
// 1). st must fit cfg (CheckState); Next writes neither.
func Next(cfg Config, st *State) int {
	// Initialisation: play each arm once.
	for i, p := range st.Plays {
		if p == 0 {
			return i
		}
	}
	// Forced exploration (D-tracking): keep every arm's count above
	// sqrt(t) - K/2 so estimates cannot starve.
	minArm, minPlays := 0, st.Plays[0]
	for i, p := range st.Plays {
		if p < minPlays {
			minArm, minPlays = i, p
		}
	}
	if float64(minPlays) < math.Sqrt(float64(st.T))-float64(len(st.Plays))/2 {
		return minArm
	}
	alpha := SolveAlpha(st.Mu, cfg.Sigma2)
	best, bestGap := 0, math.Inf(-1)
	for i, p := range st.Plays {
		gap := float64(st.T)*alpha[i] - float64(p)
		if gap > bestGap {
			best, bestGap = i, gap
		}
	}
	return best
}

// Update returns the state after st of a round in which arm was deployed,
// and writes none of its arguments. rewards[j] is the (real or fictitious)
// sample Y_j(t); entries whose Sigma2[arm][j] is +Inf are ignored. st must
// fit cfg (CheckState). An arm out of range, a reward vector of the wrong
// length, or a reward that leaves an estimate non-finite is refused.
func Update(cfg Config, st *State, arm int, rewards []float64) (*State, error) {
	k := len(cfg.Sigma2)
	if arm < 0 || arm >= k {
		return nil, fmt.Errorf("bandit: arm %d out of range", arm)
	}
	if len(rewards) != k {
		return nil, fmt.Errorf("bandit: got %d rewards, want %d", len(rewards), k)
	}
	next := st.Clone()
	for j, s2 := range cfg.Sigma2[arm] {
		if math.IsInf(s2, 1) {
			continue
		}
		next.SumWY[j] += rewards[j] / s2
		next.Rho[j] += 1 / s2
		if next.Rho[j] > 0 {
			next.Mu[j] = next.SumWY[j] / next.Rho[j]
		}
		if !finite(next.SumWY[j]) || !finite(next.Rho[j]) || !finite(next.Mu[j]) {
			return nil, fmt.Errorf("bandit: reward %v for arm %d leaves its estimate non-finite", rewards[j], j)
		}
	}
	next.Plays[arm]++
	next.T++
	checkStop(cfg, next)
	return next, nil
}

// checkStop evaluates both stopping rules on st, the state after a
// completed round, and records in it whether one fired.
func checkStop(cfg Config, st *State) {
	if st.Done {
		return
	}
	// All arms must have been tried before any stop is meaningful; the
	// initialization sweep does not count toward stability.
	for _, p := range st.Plays {
		if p == 0 {
			st.Last = -1
			st.Stable = 0
			return
		}
	}
	// Practical rule (§6.2): the bandit's selected (empirically best) expert
	// has been the same for StabilityRounds consecutive post-init rounds.
	best := argmax(st.Mu)
	if best == st.Last {
		st.Stable++
	} else {
		st.Stable = 1
		st.Last = best
	}
	if cfg.StabilityRounds > 0 && st.Stable >= cfg.StabilityRounds {
		st.Done = true
		st.Reason = "stability"
		return
	}
	if information(cfg, st) >= Beta(cfg, st.T) {
		st.Done = true
		st.Reason = "threshold"
		return
	}
	if cfg.MaxRounds > 0 && st.T >= cfg.MaxRounds {
		st.Done = true
		st.Reason = "max-rounds"
	}
}

// information computes Z_t = Φ(μ̂_t, T(t)) using the deployment counts as the
// (unnormalised) allocation; Φ is 1-homogeneous in its allocation argument.
func information(cfg Config, st *State) float64 {
	counts := make([]float64, len(st.Plays))
	for i, p := range st.Plays {
		counts[i] = float64(p)
	}
	return Phi(st.Mu, counts, cfg.Sigma2)
}

// Beta returns the Theorem-1 threshold β_t(δ, Σ) after t rounds.
func Beta(cfg Config, t int) float64 {
	s2min, s2max := sigmaRange(cfg.Sigma2)
	kappa := s2min / s2max
	tf := float64(t)
	k := float64(len(cfg.Sigma2))
	return k*tf/(2*kappa) +
		k*rewardBound*rewardBound/(2*s2min*kappa*math.Sqrt(concentration))*
			math.Sqrt(tf*math.Log(2/cfg.Delta))
}

// Phi evaluates Equation (2) in closed form for Gaussian rewards:
//
//	Φ(ν, α) = ½ · min_{k≠k*} (w_{k*} · w_k · Δ_k²) / (w_{k*} + w_k),
//
// where w_k = Σ_i α_i / σ²_{ik} is the information weight accumulated on arm
// k and Δ_k = ν_{k*} − ν_k. The inner infimum over alternative environments
// is attained by moving ν_{k*} and ν_k to their information-weighted mean.
func Phi(nu []float64, alpha []float64, sigma2 [][]float64) float64 {
	k := len(nu)
	star := argmax(nu)
	w := make([]float64, k)
	weights(w, alpha, sigma2)
	best := math.Inf(1)
	for j := 0; j < k; j++ {
		if j == star {
			continue
		}
		d := nu[star] - nu[j]
		var f float64
		switch {
		case w[star] == 0 || w[j] == 0:
			f = 0
		default:
			f = w[star] * w[j] * d * d / (2 * (w[star] + w[j]))
		}
		if f < best {
			best = f
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// weights computes w_k = Σ_i α_i / σ²_{ik} into w, which is len(alpha)
// long.
func weights(w, alpha []float64, sigma2 [][]float64) {
	k := len(alpha)
	clear(w)
	for i := 0; i < k; i++ {
		if alpha[i] == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			s2 := sigma2[i][j]
			if math.IsInf(s2, 1) {
				continue
			}
			w[j] += alpha[i] / s2
		}
	}
}

// SolveAlpha numerically solves Equation (3): the allocation over the
// probability simplex maximising Φ(ν, ·). Φ is concave (a minimum of concave
// 1-homogeneous functions of the affine weights w), so exponentiated
// (sub)gradient ascent converges; 300 fixed iterations give allocations
// accurate to well under 1% in the K≤36 regimes used here.
func SolveAlpha(nu []float64, sigma2 [][]float64) []float64 {
	k := len(nu)
	alpha := make([]float64, k)
	for i := range alpha {
		alpha[i] = 1 / float64(k)
	}
	star := argmax(nu)
	unique := false
	for j := 0; j < k; j++ {
		if j != star && nu[j] != nu[star] {
			unique = true
		}
	}
	if !unique && k > 1 {
		return alpha // degenerate ties: uniform
	}
	grad := make([]float64, k)
	w := make([]float64, k)
	for iter := 1; iter <= 300; iter++ {
		weights(w, alpha, sigma2)
		// Active (minimising) alternative arm.
		minJ, minF := -1, math.Inf(1)
		for j := 0; j < k; j++ {
			if j == star || nu[j] == nu[star] {
				continue
			}
			d := nu[star] - nu[j]
			var f float64
			if w[star] == 0 || w[j] == 0 {
				f = 0
			} else {
				f = w[star] * w[j] * d * d / (2 * (w[star] + w[j]))
			}
			if f < minF {
				minJ, minF = j, f
			}
		}
		if minJ < 0 {
			return alpha
		}
		d := nu[star] - nu[minJ]
		// ∂f/∂w_star and ∂f/∂w_minJ for f = w_a·w_b·d²/(2(w_a+w_b)).
		wa, wb := w[star], w[minJ]
		var dfa, dfb float64
		if wa+wb > 0 {
			dfa = d * d / 2 * (wb / (wa + wb)) * (wb / (wa + wb))
			dfb = d * d / 2 * (wa / (wa + wb)) * (wa / (wa + wb))
		} else {
			dfa, dfb = d*d/2, d*d/2
		}
		var gmax float64
		for i := 0; i < k; i++ {
			grad[i] = 0
			if !math.IsInf(sigma2[i][star], 1) {
				grad[i] += dfa / sigma2[i][star]
			}
			if !math.IsInf(sigma2[i][minJ], 1) {
				grad[i] += dfb / sigma2[i][minJ]
			}
			if g := math.Abs(grad[i]); g > gmax {
				gmax = g
			}
		}
		if gmax == 0 {
			return alpha
		}
		eta := 0.3 / math.Sqrt(float64(iter))
		var sum float64
		for i := 0; i < k; i++ {
			alpha[i] *= math.Exp(eta * grad[i] / gmax)
			sum += alpha[i]
		}
		for i := 0; i < k; i++ {
			alpha[i] /= sum
		}
	}
	return alpha
}

// StandardSigma2 builds the side-information matrix of classical bandit
// feedback: playing arm i observes only arm i, with the given own-arm
// variances. Used by the no-side-information ablation.
func StandardSigma2(own []float64) [][]float64 {
	k := len(own)
	out := make([][]float64, k)
	for i := range out {
		out[i] = make([]float64, k)
		for j := range out[i] {
			if i == j {
				out[i][j] = own[i]
			} else {
				out[i][j] = math.Inf(1)
			}
		}
	}
	return out
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func argmax(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

func sigmaRange(sigma2 [][]float64) (min, max float64) {
	min, max = math.Inf(1), 0
	for _, row := range sigma2 {
		for _, v := range row {
			if math.IsInf(v, 1) {
				continue
			}
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	if math.IsInf(min, 1) {
		min, max = 1, 1
	}
	return min, max
}
