package neural

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Inputs: 0, Outputs: 1}); err == nil {
		t.Error("zero inputs accepted")
	}
	if _, err := New(Config{Inputs: 1, Outputs: 0}); err == nil {
		t.Error("zero outputs accepted")
	}
	if _, err := New(Config{Inputs: 1, Outputs: 1, Hidden: []int{0}}); err == nil {
		t.Error("zero-width hidden layer accepted")
	}
	if _, err := New(Config{Inputs: 1, Outputs: 1, HiddenAct: Softmax, Hidden: []int{2}}); err == nil {
		t.Error("softmax hidden activation accepted")
	}
}

func TestForwardShapes(t *testing.T) {
	n, err := New(Config{Inputs: 3, Hidden: []int{5}, Outputs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := n.Forward([]float64{1, 2, 3})
	if len(out) != 2 {
		t.Fatalf("output len = %d", len(out))
	}
	if n.Inputs() != 3 || n.Outputs() != 2 {
		t.Fatal("dims wrong")
	}
	// Sigmoid output in (0,1).
	for _, v := range out {
		if v <= 0 || v >= 1 {
			t.Fatalf("sigmoid output %v outside (0,1)", v)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	cfg := Config{Inputs: 4, Hidden: []int{8}, Outputs: 2, Seed: 5}
	a, _ := New(cfg)
	b, _ := New(cfg)
	x := []float64{0.1, -0.3, 0.5, 0.9}
	oa, ob := a.Forward(x), b.Forward(x)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same seed produced different nets")
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	n, err := New(Config{Inputs: 2, Hidden: []int{4}, Outputs: 3, OutputAct: Softmax, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := n.Forward([]float64{1, -1})
	var sum float64
	for _, v := range out {
		if v < 0 {
			t.Fatalf("negative softmax output %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sums to %v", sum)
	}
}

func TestTrainXOR(t *testing.T) {
	n, err := New(Config{Inputs: 2, Hidden: []int{8}, Outputs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := [][]float64{{0}, {1}, {1}, {0}}
	loss, err := Trainer{Epochs: 15000, Seed: 1}.Train(n, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.03 {
		t.Fatalf("XOR loss = %v, want < 0.03", loss)
	}
	for i, x := range xs {
		out := n.Forward(x)[0]
		if math.Abs(out-ys[i][0]) > 0.3 {
			t.Fatalf("XOR(%v) = %.3f, want %v", x, out, ys[i][0])
		}
	}
}

func TestTrainRegressionProbability(t *testing.T) {
	// The cross-expert predictor use case: learn p = f(x) in [0,1].
	rng := rand.New(rand.NewSource(7))
	var xs, ys [][]float64
	for i := 0; i < 400; i++ {
		x := rng.Float64()*2 - 1
		p := 1 / (1 + math.Exp(-3*x)) // smooth monotone target
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{p})
	}
	n, err := New(Config{Inputs: 1, Hidden: []int{8}, Outputs: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	loss, err := Trainer{Epochs: 200, Seed: 2}.Train(n, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.005 {
		t.Fatalf("regression loss = %v", loss)
	}
}

func TestTrainClassification(t *testing.T) {
	// Three well-separated 2-D blobs with a softmax head.
	rng := rand.New(rand.NewSource(11))
	centers := [][]float64{{0, 0}, {4, 4}, {-4, 4}}
	var xs, ys [][]float64
	for c, ctr := range centers {
		for i := 0; i < 60; i++ {
			xs = append(xs, []float64{ctr[0] + rng.NormFloat64()*0.5, ctr[1] + rng.NormFloat64()*0.5})
			ys = append(ys, OneHot(3, c))
		}
	}
	n, err := New(Config{Inputs: 2, Hidden: []int{12}, Outputs: 3, OutputAct: Softmax, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Trainer{Epochs: 150, Seed: 3}).Train(n, xs, ys); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range xs {
		want := 0
		for j, v := range ys[i] {
			if v == 1 {
				want = j
			}
		}
		if n.Classify(x) == want {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.95 {
		t.Fatalf("classification accuracy %.2f, want >= 0.95", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	n, _ := New(Config{Inputs: 2, Outputs: 1, Seed: 1})
	if _, err := (Trainer{}).Train(n, nil, nil); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := (Trainer{}).Train(n, [][]float64{{1, 2}}, [][]float64{{1}, {2}}); err == nil {
		t.Error("mismatched set sizes accepted")
	}
	if _, err := (Trainer{}).Train(n, [][]float64{{1}}, [][]float64{{1}}); err == nil {
		t.Error("wrong input dim accepted")
	}
	if _, err := (Trainer{}).Train(n, [][]float64{{1, 2}}, [][]float64{{1}}); err == nil {
		t.Error("zero epochs accepted")
	}
}

func TestLinearModelNoHidden(t *testing.T) {
	n, err := New(Config{Inputs: 1, Outputs: 1, OutputAct: Identity, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fit y = 2x + 1.
	var xs, ys [][]float64
	for i := -10; i <= 10; i++ {
		x := float64(i) / 10
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{2*x + 1})
	}
	loss, err := Trainer{Epochs: 500, Seed: 1}.Train(n, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-3 {
		t.Fatalf("linear fit loss = %v", loss)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	n, err := New(Config{Inputs: 3, Hidden: []int{4}, Outputs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var m Net
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.7, 0.1}
	a, b := n.Forward(x), m.Forward(x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("restored net differs: %v vs %v", a, b)
		}
	}
}

func TestOneHot(t *testing.T) {
	v := OneHot(3, 1)
	if v[0] != 0 || v[1] != 1 || v[2] != 0 {
		t.Fatalf("OneHot = %v", v)
	}
	if sum := OneHot(3, -1); sum[0]+sum[1]+sum[2] != 0 {
		t.Fatal("out-of-range index should yield zero vector")
	}
}

func TestLossEmpty(t *testing.T) {
	n, _ := New(Config{Inputs: 1, Outputs: 1, Seed: 1})
	if n.Loss(nil, nil) != 0 {
		t.Fatal("Loss of empty set should be 0")
	}
}

func BenchmarkForward(b *testing.B) {
	n, err := New(Config{Inputs: 31, Hidden: []int{16}, Outputs: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 31)
	for i := range x {
		x[i] = float64(i) / 31
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
	}
}
