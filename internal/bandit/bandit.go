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

// Algorithm is the mutable state of one identification run.
type Algorithm struct {
	cfg    Config
	k      int
	t      int       // completed rounds
	plays  []int     // T_i(t)
	sumWY  []float64 // Σ_n Y_i(n) / σ²_{E_n,i}
	rho    []float64 // Σ_n 1 / σ²_{E_n,i}
	mu     []float64 // current estimates μ̂_i(t)
	stable int       // consecutive post-init rounds with the same best arm
	last   int       // empirically best arm after the previous round
	done   bool
	reason string
}

// New validates cfg and returns a fresh run.
func New(cfg Config) (*Algorithm, error) {
	k := len(cfg.Sigma2)
	if k < 2 {
		return nil, fmt.Errorf("bandit: need at least 2 arms, got %d", k)
	}
	for i, row := range cfg.Sigma2 {
		if len(row) != k {
			return nil, fmt.Errorf("bandit: Sigma2 row %d has %d entries, want %d", i, len(row), k)
		}
		if !(row[i] > 0) || math.IsInf(row[i], 1) {
			return nil, fmt.Errorf("bandit: own-arm variance Sigma2[%d][%d] must be positive and finite", i, i)
		}
		for j, v := range row {
			if !(v > 0) {
				return nil, fmt.Errorf("bandit: Sigma2[%d][%d] = %v must be > 0", i, j, v)
			}
		}
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("bandit: Delta must be in (0,1), got %v", cfg.Delta)
	}
	return &Algorithm{
		cfg:   cfg,
		k:     k,
		plays: make([]int, k),
		sumWY: make([]float64, k),
		rho:   make([]float64, k),
		mu:    make([]float64, k),
		last:  -1,
	}, nil
}

// K returns the number of arms.
func (a *Algorithm) K() int { return a.k }

// Rounds returns the number of completed rounds.
func (a *Algorithm) Rounds() int { return a.t }

// Plays returns a copy of the per-arm deployment counts.
func (a *Algorithm) Plays() []int { return append([]int(nil), a.plays...) }

// Estimates returns a copy of the current mean-reward estimates.
func (a *Algorithm) Estimates() []float64 { return append([]float64(nil), a.mu...) }

// NextArm returns the arm to deploy next (Line 2 and Line 5 of Algorithm 1).
func (a *Algorithm) NextArm() int {
	// Initialisation: play each arm once.
	for i, p := range a.plays {
		if p == 0 {
			return i
		}
	}
	// Forced exploration (D-tracking): keep every arm's count above
	// sqrt(t) - K/2 so estimates cannot starve.
	minArm, minPlays := 0, a.plays[0]
	for i, p := range a.plays {
		if p < minPlays {
			minArm, minPlays = i, p
		}
	}
	if float64(minPlays) < math.Sqrt(float64(a.t))-float64(a.k)/2 {
		return minArm
	}
	alpha := SolveAlpha(a.mu, a.cfg.Sigma2)
	best, bestGap := 0, math.Inf(-1)
	for i := 0; i < a.k; i++ {
		gap := float64(a.t)*alpha[i] - float64(a.plays[i])
		if gap > bestGap {
			best, bestGap = i, gap
		}
	}
	return best
}

// Update ingests the reward vector of one round in which arm was deployed.
// rewards[j] is the (real or fictitious) sample Y_j(t); entries whose
// Sigma2[arm][j] is +Inf are ignored.
func (a *Algorithm) Update(arm int, rewards []float64) error {
	if arm < 0 || arm >= a.k {
		return fmt.Errorf("bandit: arm %d out of range", arm)
	}
	if len(rewards) != a.k {
		return fmt.Errorf("bandit: got %d rewards, want %d", len(rewards), a.k)
	}
	for j := 0; j < a.k; j++ {
		s2 := a.cfg.Sigma2[arm][j]
		if math.IsInf(s2, 1) {
			continue
		}
		a.sumWY[j] += rewards[j] / s2
		a.rho[j] += 1 / s2
		if a.rho[j] > 0 {
			a.mu[j] = a.sumWY[j] / a.rho[j]
		}
	}
	a.plays[arm]++
	a.t++
	a.checkStop()
	return nil
}

// checkStop evaluates both stopping rules after a completed round.
func (a *Algorithm) checkStop() {
	if a.done {
		return
	}
	// All arms must have been tried before any stop is meaningful; the
	// initialization sweep does not count toward stability.
	for _, p := range a.plays {
		if p == 0 {
			a.last = -1
			a.stable = 0
			return
		}
	}
	// Practical rule (§6.2): the bandit's selected (empirically best) expert
	// has been the same for StabilityRounds consecutive post-init rounds.
	best := argmax(a.mu)
	if best == a.last {
		a.stable++
	} else {
		a.stable = 1
		a.last = best
	}
	if a.cfg.StabilityRounds > 0 && a.stable >= a.cfg.StabilityRounds {
		a.done = true
		a.reason = "stability"
		return
	}
	z := a.information()
	if z >= a.Beta() {
		a.done = true
		a.reason = "threshold"
		return
	}
	if a.cfg.MaxRounds > 0 && a.t >= a.cfg.MaxRounds {
		a.done = true
		a.reason = "max-rounds"
	}
}

// information computes Z_t = Φ(μ̂_t, T(t)) using the deployment counts as the
// (unnormalised) allocation; Φ is 1-homogeneous in its allocation argument.
func (a *Algorithm) information() float64 {
	counts := make([]float64, a.k)
	for i, p := range a.plays {
		counts[i] = float64(p)
	}
	return Phi(a.mu, counts, a.cfg.Sigma2)
}

// Information exposes Z_t for diagnostics.
func (a *Algorithm) Information() float64 { return a.information() }

// Beta returns the Theorem-1 threshold β_t(δ, Σ) at the current round.
func (a *Algorithm) Beta() float64 {
	s2min, s2max := sigmaRange(a.cfg.Sigma2)
	kappa := s2min / s2max
	t := float64(a.t)
	k := float64(a.k)
	return k*t/(2*kappa) +
		k*rewardBound*rewardBound/(2*s2min*kappa*math.Sqrt(concentration))*
			math.Sqrt(t*math.Log(2/a.cfg.Delta))
}

// Stopped reports whether a stopping rule has fired.
func (a *Algorithm) Stopped() bool { return a.done }

// StopReason returns "stability", "threshold", "max-rounds", or "" while
// running.
func (a *Algorithm) StopReason() string { return a.reason }

// Recommendation returns ψ(μ̂) = argmax μ̂_i, the recommended best arm.
func (a *Algorithm) Recommendation() int { return argmax(a.mu) }

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
