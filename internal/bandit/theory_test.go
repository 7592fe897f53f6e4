package bandit

import (
	"math"
	"testing"
)

// TestTheorem1Soundness verifies the δ-soundness claim empirically: with the
// stability rule disabled (threshold-only stopping), the fraction of runs
// recommending a wrong arm must stay below δ (with slack for finite trials).
func TestTheorem1Soundness(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// The Theorem-1 threshold β_t grows like K·t/(2κ), so it only fires when
	// Φ(ν, α*) exceeds K/(2κ): the arm gaps must be large relative to the
	// sample noise. Pick such an operating point.
	mu := []float64{0.8, 0.3, 0.25}
	k := len(mu)
	sigma2 := make([][]float64, k)
	for i := range sigma2 {
		sigma2[i] = make([]float64, k)
		for j := range sigma2[i] {
			sigma2[i][j] = 0.01
		}
	}
	const delta = 0.1
	const trials = 100
	wrong := 0
	stoppedByThreshold := 0
	for trial := 0; trial < trials; trial++ {
		env, err := NewEnv(mu, sigma2, int64(9000+trial))
		if err != nil {
			t.Fatal(err)
		}
		st, err := Run(Config{
			Sigma2: sigma2, Delta: delta,
			StabilityRounds: 0, MaxRounds: 500,
		}, env, 500)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reason == "threshold" {
			stoppedByThreshold++
		}
		if st.Recommendation() != 0 {
			wrong++
		}
	}
	if stoppedByThreshold == 0 {
		t.Skip("threshold never fired at this operating point; nothing to verify")
	}
	// Allow 2x slack over δ for the 100-trial estimate.
	if rate := float64(wrong) / trials; rate > 2*delta {
		t.Fatalf("error rate %.2f exceeds 2·δ = %.2f (threshold stops: %d)", rate, 2*delta, stoppedByThreshold)
	}
}

// TestTheorem2KIndependence verifies the headline scaling property: with
// side information, the number of *post-initialisation* rounds to identify
// the best arm stays roughly constant as K grows, whereas standard bandit
// feedback needs more rounds for more arms.
func TestTheorem2KIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	postInit := func(k int, standard bool) float64 {
		mu := make([]float64, k)
		mu[0] = 0.5
		for i := 1; i < k; i++ {
			mu[i] = 0.35 - 0.01*float64(i) // clear 0.15 gap to the best
		}
		var sigma2 [][]float64
		if standard {
			own := make([]float64, k)
			for i := range own {
				own[i] = 0.01
			}
			sigma2 = StandardSigma2(own)
		} else {
			sigma2 = make([][]float64, k)
			for i := range sigma2 {
				sigma2[i] = make([]float64, k)
				for j := range sigma2[i] {
					sigma2[i][j] = 0.01
				}
			}
		}
		const trials = 25
		total := 0
		for trial := 0; trial < trials; trial++ {
			env, err := NewEnv(mu, sigma2, int64(7000*k+trial))
			if err != nil {
				t.Fatal(err)
			}
			st, err := Run(DefaultConfig(sigma2), env, 5000)
			if err != nil {
				t.Fatal(err)
			}
			total += st.T - k // exclude the mandatory init sweep
		}
		return float64(total) / trials
	}

	sideSmall, sideLarge := postInit(4, false), postInit(16, false)
	stdSmall, stdLarge := postInit(4, true), postInit(16, true)

	// Side information: post-init rounds must not blow up with K.
	if sideLarge > 3*sideSmall+3 {
		t.Fatalf("side-info post-init rounds scaled with K: %.1f (K=4) -> %.1f (K=16)", sideSmall, sideLarge)
	}
	// Standard feedback must grow at least as fast as side info.
	if stdLarge-stdSmall < sideLarge-sideSmall-1 {
		t.Fatalf("standard feedback grew slower than side info: std %.1f->%.1f, side %.1f->%.1f",
			stdSmall, stdLarge, sideSmall, sideLarge)
	}
	t.Logf("post-init rounds: side %.1f->%.1f, standard %.1f->%.1f", sideSmall, sideLarge, stdSmall, stdLarge)
}

// TestEstimatorConsistency: the Eq. (1) estimator converges to the true means
// under an arbitrary (here: round-robin) deployment sequence.
func TestEstimatorConsistency(t *testing.T) {
	mu := []float64{0.42, 0.37, 0.51}
	k := len(mu)
	sigma2 := make([][]float64, k)
	for i := range sigma2 {
		sigma2[i] = make([]float64, k)
		for j := range sigma2[i] {
			sigma2[i][j] = 0.04 * float64(1+(i+j)%3) // heterogeneous variances
		}
	}
	env, err := NewEnv(mu, sigma2, 321)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(sigma2)
	cfg.StabilityRounds = 0
	cfg.MaxRounds = 0
	st, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3000; r++ {
		arm := r % k
		if st, err = Update(cfg, st, arm, env.Sample(arm)); err != nil {
			t.Fatal(err)
		}
	}
	for i, est := range st.Mu {
		if math.Abs(est-mu[i]) > 0.02 {
			t.Fatalf("estimate %d = %.4f, true %.4f", i, est, mu[i])
		}
	}
}
