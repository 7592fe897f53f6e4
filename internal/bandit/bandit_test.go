package bandit

import (
	"math"
	"testing"
)

// uniformSigma builds a K×K matrix with every entry = v.
func uniformSigma(k int, v float64) [][]float64 {
	out := make([][]float64, k)
	for i := range out {
		out[i] = make([]float64, k)
		for j := range out[i] {
			out[i][j] = v
		}
	}
	return out
}

// TestNewValidation: Start refuses every malformed configuration.
func TestNewValidation(t *testing.T) {
	if _, err := Start(DefaultConfig(uniformSigma(1, 0.1))); err == nil {
		t.Error("single arm accepted")
	}
	bad := uniformSigma(3, 0.1)
	bad[1] = bad[1][:2]
	if _, err := Start(DefaultConfig(bad)); err == nil {
		t.Error("ragged matrix accepted")
	}
	neg := uniformSigma(2, 0.1)
	neg[0][1] = -1
	if _, err := Start(DefaultConfig(neg)); err == nil {
		t.Error("negative variance accepted")
	}
	inf := uniformSigma(2, 0.1)
	inf[0][0] = math.Inf(1)
	if _, err := Start(DefaultConfig(inf)); err == nil {
		t.Error("infinite own-arm variance accepted")
	}
	cfg := DefaultConfig(uniformSigma(2, 0.1))
	cfg.Delta = 0
	if _, err := Start(cfg); err == nil {
		t.Error("delta=0 accepted")
	}
}

func TestInitialisationPlaysEachArmOnce(t *testing.T) {
	cfg := DefaultConfig(uniformSigma(4, 0.05))
	st, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for r := 0; r < 4; r++ {
		arm := Next(cfg, st)
		if seen[arm] {
			t.Fatalf("arm %d played twice during initialisation", arm)
		}
		seen[arm] = true
		rw := make([]float64, 4)
		if st, err = Update(cfg, st, arm, rw); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 4 {
		t.Fatal("not all arms initialised")
	}
}

func TestUpdateValidation(t *testing.T) {
	cfg := DefaultConfig(uniformSigma(2, 0.1))
	st, _ := Start(cfg)
	if _, err := Update(cfg, st, 5, []float64{0, 0}); err == nil {
		t.Error("out-of-range arm accepted")
	}
	if _, err := Update(cfg, st, 0, []float64{0}); err == nil {
		t.Error("short reward vector accepted")
	}
	if _, err := Update(cfg, st, 0, []float64{math.NaN(), 0}); err == nil {
		t.Error("NaN reward accepted")
	}
	if _, err := Update(cfg, st, 0, []float64{0, math.MaxFloat64}); err == nil {
		t.Error("a reward whose estimate overflows accepted")
	}
}

func TestEstimatorWeighting(t *testing.T) {
	// Two arms; arm 0's samples for arm 1 have high variance (1.0), arm 1's
	// own samples low variance (0.01). The estimator must weight low-variance
	// samples 100x more.
	sigma2 := [][]float64{{0.01, 1.0}, {1.0, 0.01}}
	cfg := DefaultConfig(sigma2)
	cfg.StabilityRounds = 0 // don't stop during this test
	st, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Play arm 0: noisy sample says arm 1 has reward 1.0.
	if st, err = Update(cfg, st, 0, []float64{0.5, 1.0}); err != nil {
		t.Fatal(err)
	}
	// Play arm 1: precise sample says arm 1 has reward 0.2.
	if st, err = Update(cfg, st, 1, []float64{0.5, 0.2}); err != nil {
		t.Fatal(err)
	}
	mu := st.Mu
	// Weighted: (1.0/1 + 0.2/0.01)/(1/1 + 1/0.01) = 21/101 ≈ 0.208.
	want := (1.0/1 + 0.2/0.01) / (1/1.0 + 1/0.01)
	if math.Abs(mu[1]-want) > 1e-9 {
		t.Fatalf("mu[1] = %v, want %v", mu[1], want)
	}
}

func TestPhiClosedForm(t *testing.T) {
	// Two arms, uniform allocation, equal variances.
	nu := []float64{0.6, 0.4}
	alpha := []float64{0.5, 0.5}
	sigma2 := uniformSigma(2, 0.1)
	// w_k = 0.5/0.1 + 0.5/0.1 = 10 for both; Φ = 10·10·0.04/(2·20) = 0.1.
	got := Phi(nu, alpha, sigma2)
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("Phi = %v, want 0.1", got)
	}
}

func TestPhiZeroWhenTied(t *testing.T) {
	nu := []float64{0.5, 0.5}
	if got := Phi(nu, []float64{0.5, 0.5}, uniformSigma(2, 0.1)); got != 0 {
		t.Fatalf("Phi of tied means = %v, want 0", got)
	}
}

func TestPhiHomogeneous(t *testing.T) {
	nu := []float64{0.7, 0.5, 0.3}
	sigma2 := uniformSigma(3, 0.2)
	alpha := []float64{0.2, 0.5, 0.3}
	scaled := []float64{2, 5, 3} // 10x
	a, b := Phi(nu, alpha, sigma2), Phi(nu, scaled, sigma2)
	if math.Abs(b-10*a) > 1e-9 {
		t.Fatalf("Phi not 1-homogeneous: %v vs %v", a, b)
	}
}

func TestSolveAlphaSimplex(t *testing.T) {
	nu := []float64{0.6, 0.5, 0.3}
	sigma2 := uniformSigma(3, 0.1)
	alpha := SolveAlpha(nu, sigma2)
	var sum float64
	for _, a := range alpha {
		if a < 0 {
			t.Fatalf("negative allocation %v", alpha)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("allocation sums to %v", sum)
	}
}

func TestSolveAlphaImprovesOverUniform(t *testing.T) {
	// With standard feedback (no side info) and one arm much weaker, the
	// optimal allocation should spend less on the weak arm than uniform and
	// achieve a strictly larger Φ.
	nu := []float64{0.6, 0.55, 0.1}
	sigma2 := StandardSigma2([]float64{0.1, 0.1, 0.1})
	alpha := SolveAlpha(nu, sigma2)
	uniform := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	if Phi(nu, alpha, sigma2) <= Phi(nu, uniform, sigma2) {
		t.Fatalf("solved Φ %.6f not above uniform %.6f (alpha=%v)",
			Phi(nu, alpha, sigma2), Phi(nu, uniform, sigma2), alpha)
	}
	if alpha[2] >= uniform[2] {
		t.Fatalf("weak arm over-allocated: %v", alpha)
	}
}

// solveAlphaCases are three fixed (ν, Σ) inputs: full side information,
// standard bandit feedback (+Inf off the diagonal), and six arms with some
// pairs unobserved.
func solveAlphaCases() []struct {
	nu     []float64
	sigma2 [][]float64
} {
	six := make([][]float64, 6)
	for i := range six {
		six[i] = make([]float64, 6)
		for j := range six[i] {
			switch {
			case i == j:
				six[i][j] = 0.01 + 0.002*float64(i)
			case (i+j)%3 == 0:
				six[i][j] = math.Inf(1)
			default:
				six[i][j] = 0.02 + 0.005*float64(i*j%5)
			}
		}
	}
	return []struct {
		nu     []float64
		sigma2 [][]float64
	}{
		{[]float64{0.30, 0.25, 0.10}, [][]float64{{0.01, 0.02, 0.05}, {0.03, 0.01, 0.02}, {0.04, 0.02, 0.01}}},
		{[]float64{0.40, 0.38, 0.20, 0.39}, StandardSigma2([]float64{0.01, 0.02, 0.015, 0.03})},
		{[]float64{0.21, 0.35, 0.34, 0.05, 0.30, 0.349}, six},
	}
}

// TestSolveAlphaGolden pins SolveAlpha's output bits on solveAlphaCases to
// values recorded when each of its 300 iterations still allocated its own
// weight vector: reusing one buffer must not move a bit.
func TestSolveAlphaGolden(t *testing.T) {
	golden := [][]uint64{
		{0x3fe50699e7301252, 0x3fd598b2825a2f62, 0x3f76866bd16afe85},
		{0x3fd5ec21cc5f41c2, 0x3fb18b7f90626b01, 0x3f569162b256c255, 0x3fe2cd36766ae65e},
		{0x3fe96f1679026f60, 0x3fb38e9b6b817716, 0x3f80d1ea28998f01, 0x3fbcac115378833a, 0x3f3824eecc26f4f6, 0x3f80d1ea28998f01},
	}
	for c, in := range solveAlphaCases() {
		alpha := SolveAlpha(in.nu, in.sigma2)
		for i, want := range golden[c] {
			if got := math.Float64bits(alpha[i]); got != want {
				t.Fatalf("case %d: alpha[%d] = %v (%#x), want %v (%#x)", c, i, alpha[i], got, math.Float64frombits(want), want)
			}
		}
	}
}

// TestSolveAlphaAllocs bounds a solve at three allocations — the result,
// the gradient and the weights — however many iterations it runs.
func TestSolveAlphaAllocs(t *testing.T) {
	for c, in := range solveAlphaCases() {
		if allocs := testing.AllocsPerRun(10, func() { SolveAlpha(in.nu, in.sigma2) }); allocs > 3 {
			t.Fatalf("case %d: SolveAlpha made %v allocations, want at most 3", c, allocs)
		}
	}
}

func TestSolveAlphaDegenerateTies(t *testing.T) {
	alpha := SolveAlpha([]float64{0.5, 0.5}, uniformSigma(2, 0.1))
	if math.Abs(alpha[0]-0.5) > 1e-9 {
		t.Fatalf("tied means should give uniform, got %v", alpha)
	}
}

func TestIdentifiesBestArmWithSideInfo(t *testing.T) {
	mu := []float64{0.30, 0.45, 0.38, 0.25}
	sigma2 := uniformSigma(4, 0.02)
	env, err := NewEnv(mu, sigma2, 99)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	var totalRounds int
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		env.rng.Seed(int64(1000 + trial))
		st, err := Run(DefaultConfig(sigma2), env, 500)
		if err != nil {
			t.Fatal(err)
		}
		totalRounds += st.T
		if st.Recommendation() == 1 {
			correct++
		}
	}
	// The practical 5-round stability rule trades some confidence for speed
	// (the δ-sound guarantee belongs to the threshold rule), so expect a
	// large majority rather than δ-level accuracy here.
	if correct < 24 {
		t.Fatalf("identified best arm in only %d/%d trials", correct, trials)
	}
	if avg := float64(totalRounds) / trials; avg > 200 {
		t.Fatalf("average rounds %.1f too high", avg)
	}
}

func TestSideInfoFasterThanStandard(t *testing.T) {
	// The headline theoretical claim (Theorem 2): with side information the
	// stopping time does not scale with K; with standard feedback it does.
	mu := []float64{0.50, 0.40, 0.38, 0.36, 0.34, 0.32, 0.30, 0.28}
	k := len(mu)
	side := uniformSigma(k, 0.02)
	std := StandardSigma2(repeat(0.02, k))

	avgRounds := func(sigma2 [][]float64) float64 {
		var total int
		const trials = 20
		for trial := 0; trial < trials; trial++ {
			env, err := NewEnv(mu, sigma2, int64(500+trial))
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(sigma2)
			cfg.StabilityRounds = 5
			st, err := Run(cfg, env, 2000)
			if err != nil {
				t.Fatal(err)
			}
			total += st.T
		}
		return float64(total) / trials
	}

	withSide := avgRounds(side)
	withStd := avgRounds(std)
	if withSide >= withStd {
		t.Fatalf("side info (%.1f rounds) not faster than standard feedback (%.1f)", withSide, withStd)
	}
}

func TestStabilityStopReason(t *testing.T) {
	sigma2 := uniformSigma(2, 0.05)
	env, err := NewEnv([]float64{0.7, 0.4}, sigma2, 4) // a gap the threshold cannot resolve in 5 rounds
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(sigma2)
	cfg.StabilityRounds = 5
	st, err := Run(cfg, env, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatal("did not stop")
	}
	if best := st.Recommendation(); best != 0 {
		t.Fatalf("recommended arm %d, want 0", best)
	}
	if st.Reason != "stability" {
		t.Fatalf("reason = %q", st.Reason)
	}
}

func TestMaxRoundsStop(t *testing.T) {
	sigma2 := uniformSigma(2, 0.25)
	env, err := NewEnv([]float64{0.5, 0.5}, sigma2, 8) // indistinguishable arms
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(sigma2)
	cfg.StabilityRounds = 0
	cfg.MaxRounds = 30
	st, err := Run(cfg, env, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if st.T != 30 {
		t.Fatalf("rounds = %d, want 30", st.T)
	}
	if st.Reason != "max-rounds" {
		t.Fatalf("reason = %q", st.Reason)
	}
}

func TestStandardSigma2Shape(t *testing.T) {
	m := StandardSigma2([]float64{0.1, 0.2})
	if m[0][0] != 0.1 || m[1][1] != 0.2 {
		t.Fatal("diagonal wrong")
	}
	if !math.IsInf(m[0][1], 1) || !math.IsInf(m[1][0], 1) {
		t.Fatal("off-diagonal must be +Inf")
	}
}

func TestBetaGrowsWithT(t *testing.T) {
	cfg := DefaultConfig(uniformSigma(3, 0.1))
	var prev float64
	for r := 1; r <= 5; r++ {
		b := Beta(cfg, r)
		if b <= prev {
			t.Fatalf("beta not increasing at round %d: %v <= %v", r, b, prev)
		}
		prev = b
	}
}

func TestEnvValidation(t *testing.T) {
	if _, err := NewEnv([]float64{1}, uniformSigma(2, 0.1), 1); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func BenchmarkSolveAlpha(b *testing.B) {
	nu := make([]float64, 12)
	for i := range nu {
		nu[i] = 0.5 - 0.02*float64(i)
	}
	sigma2 := uniformSigma(12, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveAlpha(nu, sigma2)
	}
}
