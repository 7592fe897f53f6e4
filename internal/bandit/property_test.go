package bandit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomInstance builds a small random bandit instance from fuzz bytes.
func randomInstance(seed int64, k int) ([]float64, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	nu := make([]float64, k)
	for i := range nu {
		nu[i] = rng.Float64()
	}
	sigma2 := make([][]float64, k)
	for i := range sigma2 {
		sigma2[i] = make([]float64, k)
		for j := range sigma2[i] {
			sigma2[i][j] = 0.005 + rng.Float64()*0.2
		}
	}
	return nu, sigma2
}

// Φ is non-negative and exactly 1-homogeneous in the allocation for any
// random instance.
func TestPhiPropertiesQuick(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := 2 + int(kRaw%5)
		nu, sigma2 := randomInstance(seed, k)
		rng := rand.New(rand.NewSource(seed + 1))
		alpha := make([]float64, k)
		for i := range alpha {
			alpha[i] = rng.Float64()
		}
		v := Phi(nu, alpha, sigma2)
		if v < 0 || math.IsNaN(v) {
			return false
		}
		scaled := make([]float64, k)
		for i := range scaled {
			scaled[i] = alpha[i] * 7
		}
		v7 := Phi(nu, scaled, sigma2)
		return math.Abs(v7-7*v) <= 1e-9*(1+math.Abs(v7))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// SolveAlpha always returns a simplex point whose Φ is at least as good as
// uniform (it maximises a concave function starting from uniform).
func TestSolveAlphaPropertiesQuick(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := 2 + int(kRaw%5)
		nu, sigma2 := randomInstance(seed, k)
		alpha := SolveAlpha(nu, sigma2)
		var sum float64
		for _, a := range alpha {
			if a < -1e-12 || math.IsNaN(a) {
				return false
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		uniform := make([]float64, k)
		for i := range uniform {
			uniform[i] = 1 / float64(k)
		}
		// Allow a small tolerance: the subgradient iteration is approximate.
		return Phi(nu, alpha, sigma2) >= Phi(nu, uniform, sigma2)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The weighted estimator is invariant to the order in which (arm, reward)
// observations arrive.
func TestEstimatorOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		const k = 3
		nu, sigma2 := randomInstance(seed, k)
		_ = nu
		type obs struct {
			arm int
			y   []float64
		}
		rng := rand.New(rand.NewSource(seed))
		var observations []obs
		for n := 0; n < 20; n++ {
			y := make([]float64, k)
			for j := range y {
				y[j] = rng.Float64()
			}
			observations = append(observations, obs{arm: rng.Intn(k), y: y})
		}
		run := func(order []int) []float64 {
			cfg := DefaultConfig(sigma2)
			cfg.StabilityRounds = 0
			st, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range order {
				if st, err = Update(cfg, st, observations[i].arm, observations[i].y); err != nil {
					t.Fatal(err)
				}
			}
			return st.Mu
		}
		fwd := make([]int, len(observations))
		rev := make([]int, len(observations))
		for i := range fwd {
			fwd[i] = i
			rev[i] = len(observations) - 1 - i
		}
		a, b := run(fwd), run(rev)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
