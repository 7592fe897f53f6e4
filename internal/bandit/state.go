package bandit

import "fmt"

// State is an identification run's learned state: what Update maps to its
// successor and, JSON-serialised, its snapshot. Config (the Σ matrix and
// stopping constants) is deliberately excluded — the restorer rebuilds it
// from its own configuration and CheckState checks the state against it.
type State struct {
	T      int       `json:"t"`      // completed rounds
	Plays  []int     `json:"plays"`  // T_i(t)
	SumWY  []float64 `json:"sum_wy"` // Σ_n Y_i(n) / σ²_{E_n,i}
	Rho    []float64 `json:"rho"`    // Σ_n 1 / σ²_{E_n,i}
	Mu     []float64 `json:"mu"`     // current estimates μ̂_i(t)
	Stable int       `json:"stable"` // consecutive post-init rounds with the same best arm
	Last   int       `json:"last"`   // empirically best arm after the previous round
	Done   bool      `json:"done"`
	Reason string    `json:"reason"`
}

// Clone returns a copy of st that shares no slice with it.
func (st *State) Clone() *State {
	out := *st
	out.Plays = append([]int(nil), st.Plays...)
	out.SumWY = append([]float64(nil), st.SumWY...)
	out.Rho = append([]float64(nil), st.Rho...)
	out.Mu = append([]float64(nil), st.Mu...)
	return &out
}

// Recommendation returns ψ(μ̂) = argmax μ̂_i, the recommended best arm.
func (st *State) Recommendation() int { return argmax(st.Mu) }

// CheckState checks st whole against cfg: the per-arm arrays have cfg's arm
// count, the play counts add up to the round count, the estimators are
// finite, and the stop fields are consistent. A state that passes is one
// Next and Update accept.
func (cfg Config) CheckState(st *State) error {
	if st == nil {
		return fmt.Errorf("bandit: nil state")
	}
	k := len(cfg.Sigma2)
	if len(st.Plays) != k || len(st.SumWY) != k || len(st.Rho) != k || len(st.Mu) != k {
		return fmt.Errorf("bandit: state arrays plays=%d sumWY=%d rho=%d mu=%d, run has %d arms",
			len(st.Plays), len(st.SumWY), len(st.Rho), len(st.Mu), k)
	}
	if st.T < 0 {
		return fmt.Errorf("bandit: negative round count %d", st.T)
	}
	total := 0
	for i, p := range st.Plays {
		if p < 0 {
			return fmt.Errorf("bandit: negative play count %d for arm %d", p, i)
		}
		total += p
	}
	if total != st.T {
		return fmt.Errorf("bandit: play counts sum to %d, want t=%d", total, st.T)
	}
	for i := 0; i < k; i++ {
		if !finite(st.SumWY[i]) || !finite(st.Rho[i]) || !finite(st.Mu[i]) {
			return fmt.Errorf("bandit: non-finite estimator state for arm %d", i)
		}
		if st.Rho[i] < 0 {
			return fmt.Errorf("bandit: negative precision %v for arm %d", st.Rho[i], i)
		}
	}
	if st.Last < -1 || st.Last >= k {
		return fmt.Errorf("bandit: last best arm %d out of range", st.Last)
	}
	if st.Stable < 0 {
		return fmt.Errorf("bandit: negative stability counter %d", st.Stable)
	}
	switch st.Reason {
	case "", "stability", "threshold", "max-rounds":
	default:
		return fmt.Errorf("bandit: unknown stop reason %q", st.Reason)
	}
	if st.Done && st.Reason == "" {
		return fmt.Errorf("bandit: done without a stop reason")
	}
	return nil
}
