// Package neural implements the small fully-connected networks Darwin uses:
// the cross-expert predictors M_{i,j} (§4.1) — one-hidden-layer nets mapping
// a trace's extended feature vector to the conditional hit probabilities
// P(E_j hit | E_i hit) and P(E_j hit | E_i miss) — and the multi-class
// DirectMapping baseline (§4). Only the Go standard library is used: layers
// are plain matrices, training is plain mini-batch SGD, and all
// randomness is seeded for reproducibility.
package neural

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// Activation names a layer nonlinearity.
type Activation string

// Supported activations.
const (
	ReLU     Activation = "relu"
	Tanh     Activation = "tanh"
	Sigmoid  Activation = "sigmoid"
	Identity Activation = "identity"
	// Softmax is valid only as the output activation, paired with
	// cross-entropy loss.
	Softmax Activation = "softmax"
)

func (a Activation) apply(z []float64) []float64 {
	out := make([]float64, len(z))
	switch a {
	case ReLU:
		for i, v := range z {
			if v > 0 {
				out[i] = v
			}
		}
	case Tanh:
		for i, v := range z {
			out[i] = math.Tanh(v)
		}
	case Sigmoid:
		for i, v := range z {
			out[i] = 1 / (1 + math.Exp(-v))
		}
	case Identity:
		copy(out, z)
	case Softmax:
		max := math.Inf(-1)
		for _, v := range z {
			if v > max {
				max = v
			}
		}
		var sum float64
		for i, v := range z {
			out[i] = math.Exp(v - max)
			sum += out[i]
		}
		for i := range out {
			out[i] /= sum
		}
	default:
		panic(fmt.Sprintf("neural: unknown activation %q", a))
	}
	return out
}

// derivative returns dA/dz given the activation value a (not used for
// Softmax, whose delta is fused with cross-entropy).
func (act Activation) derivative(a float64) float64 {
	switch act {
	case ReLU:
		if a > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - a*a
	case Sigmoid:
		return a * (1 - a)
	case Identity:
		return 1
	}
	panic(fmt.Sprintf("neural: derivative of %q", act))
}

// layer is one dense layer with weights W[out][in] and biases b[out].
type layer struct {
	W    [][]float64
	B    []float64
	Act  Activation
	in   []float64 // cached forward input
	preA []float64 // cached activation output
}

// Config describes a network.
type Config struct {
	// Inputs is the input dimension.
	Inputs int
	// Hidden lists hidden layer widths (may be empty for a linear model).
	Hidden []int
	// Outputs is the output dimension.
	Outputs int
	// HiddenAct is the hidden activation (default Tanh).
	HiddenAct Activation
	// OutputAct is the output activation (default Sigmoid). Softmax selects
	// cross-entropy loss; everything else trains with MSE.
	OutputAct Activation
	// Seed initialises weights deterministically.
	Seed int64
}

// Net is a feed-forward network.
type Net struct {
	cfg    Config
	layers []*layer
}

// New builds a network with Xavier-uniform initial weights.
func New(cfg Config) (*Net, error) {
	if cfg.Inputs <= 0 || cfg.Outputs <= 0 {
		return nil, fmt.Errorf("neural: need positive dims, got in=%d out=%d", cfg.Inputs, cfg.Outputs)
	}
	for _, h := range cfg.Hidden {
		if h <= 0 {
			return nil, fmt.Errorf("neural: hidden width must be > 0, got %d", h)
		}
	}
	if cfg.HiddenAct == "" {
		cfg.HiddenAct = Tanh
	}
	if cfg.OutputAct == "" {
		cfg.OutputAct = Sigmoid
	}
	if cfg.HiddenAct == Softmax {
		return nil, fmt.Errorf("neural: softmax is output-only")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dims := append([]int{cfg.Inputs}, cfg.Hidden...)
	dims = append(dims, cfg.Outputs)
	n := &Net{cfg: cfg}
	for l := 0; l+1 < len(dims); l++ {
		in, out := dims[l], dims[l+1]
		act := cfg.HiddenAct
		if l+2 == len(dims) {
			act = cfg.OutputAct
		}
		lim := math.Sqrt(6 / float64(in+out))
		ly := &layer{
			W:   make([][]float64, out),
			B:   make([]float64, out),
			Act: act,
		}
		for o := 0; o < out; o++ {
			ly.W[o] = make([]float64, in)
			for i := 0; i < in; i++ {
				ly.W[o][i] = (rng.Float64()*2 - 1) * lim
			}
		}
		n.layers = append(n.layers, ly)
	}
	return n, nil
}

// Inputs returns the input dimension.
func (n *Net) Inputs() int { return n.cfg.Inputs }

// Outputs returns the output dimension.
func (n *Net) Outputs() int { return n.cfg.Outputs }

// Forward runs inference. The input length must equal Inputs().
func (n *Net) Forward(x []float64) []float64 {
	a := x
	for _, ly := range n.layers {
		z := make([]float64, len(ly.W))
		for o, row := range ly.W {
			s := ly.B[o]
			for i, w := range row {
				s += w * a[i]
			}
			z[o] = s
		}
		a = ly.Act.apply(z)
	}
	return a
}

// forwardTrain runs inference caching per-layer inputs and activations.
func (n *Net) forwardTrain(x []float64) []float64 {
	a := x
	for _, ly := range n.layers {
		ly.in = a
		z := make([]float64, len(ly.W))
		for o, row := range ly.W {
			s := ly.B[o]
			for i, w := range row {
				s += w * a[i]
			}
			z[o] = s
		}
		a = ly.Act.apply(z)
		ly.preA = a
	}
	return a
}

// backward accumulates gradients for one sample into gW/gB given the output
// delta (dLoss/dz of the output layer).
func (n *Net) backward(delta []float64, gW [][][]float64, gB [][]float64) {
	for l := len(n.layers) - 1; l >= 0; l-- {
		ly := n.layers[l]
		for o, row := range ly.W {
			gB[l][o] += delta[o]
			for i := range row {
				gW[l][o][i] += delta[o] * ly.in[i]
			}
		}
		if l == 0 {
			break
		}
		prev := n.layers[l-1]
		nd := make([]float64, len(prev.W))
		for i := range nd {
			var s float64
			for o, row := range ly.W {
				s += row[i] * delta[o]
			}
			nd[i] = s * prev.Act.derivative(prev.preA[i])
		}
		delta = nd
	}
}

// SGD step constants: every net in the system trains with this learning rate
// over mini-batches of this size.
const (
	learningRate = 0.1
	batchSize    = 8
)

// Trainer runs plain mini-batch SGD (no momentum, no weight decay) at
// learningRate over batches of batchSize.
type Trainer struct {
	// Epochs is the number of passes over the data; it must be positive.
	Epochs int
	// Seed shuffles mini-batches deterministically.
	Seed int64
}

// Train fits the network to (xs, ys) and returns the final average loss.
func (t Trainer) Train(n *Net, xs, ys [][]float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, fmt.Errorf("neural: bad training set sizes %d/%d", len(xs), len(ys))
	}
	for i := range xs {
		if len(xs[i]) != n.cfg.Inputs || len(ys[i]) != n.cfg.Outputs {
			return 0, fmt.Errorf("neural: sample %d dims (%d,%d) want (%d,%d)",
				i, len(xs[i]), len(ys[i]), n.cfg.Inputs, n.cfg.Outputs)
		}
	}
	if t.Epochs <= 0 {
		return 0, fmt.Errorf("neural: epochs must be positive, got %d", t.Epochs)
	}
	rng := rand.New(rand.NewSource(t.Seed))
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}

	gW := make([][][]float64, len(n.layers))
	gB := make([][]float64, len(n.layers))
	for l, ly := range n.layers {
		gW[l] = make([][]float64, len(ly.W))
		gB[l] = make([]float64, len(ly.B))
		for o := range ly.W {
			gW[l][o] = make([]float64, len(ly.W[o]))
		}
	}

	for epoch := 0; epoch < t.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batchSize {
			end := min(start+batchSize, len(idx))
			for l := range gW {
				for o := range gW[l] {
					for i := range gW[l][o] {
						gW[l][o][i] = 0
					}
					gB[l][o] = 0
				}
			}
			for _, s := range idx[start:end] {
				out := n.forwardTrain(xs[s])
				delta := n.outputDelta(out, ys[s])
				n.backward(delta, gW, gB)
			}
			scale := learningRate / float64(end-start)
			for l, ly := range n.layers {
				for o := range ly.W {
					for i := range ly.W[o] {
						ly.W[o][i] -= scale * gW[l][o][i]
					}
					ly.B[o] -= scale * gB[l][o]
				}
			}
		}
	}
	return n.Loss(xs, ys), nil
}

// outputDelta returns dLoss/dz for the output layer: MSE with the output
// activation's derivative, or the fused softmax+cross-entropy delta.
func (n *Net) outputDelta(out, y []float64) []float64 {
	d := make([]float64, len(out))
	act := n.layers[len(n.layers)-1].Act
	if act == Softmax {
		for i := range d {
			d[i] = out[i] - y[i]
		}
		return d
	}
	for i := range d {
		d[i] = (out[i] - y[i]) * act.derivative(out[i])
	}
	return d
}

// Loss returns the average loss over the dataset: cross-entropy for a
// softmax output, otherwise MSE.
func (n *Net) Loss(xs, ys [][]float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	act := n.layers[len(n.layers)-1].Act
	var total float64
	for s := range xs {
		out := n.Forward(xs[s])
		if act == Softmax {
			for i, y := range ys[s] {
				if y > 0 {
					p := out[i]
					if p < 1e-12 {
						p = 1e-12
					}
					total -= y * math.Log(p)
				}
			}
		} else {
			for i, y := range ys[s] {
				d := out[i] - y
				total += d * d
			}
		}
	}
	return total / float64(len(xs))
}

// Classify returns the argmax output index for x.
func (n *Net) Classify(x []float64) int {
	out := n.Forward(x)
	best, bi := math.Inf(-1), 0
	for i, v := range out {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// netJSON is the serialised form.
type netJSON struct {
	Cfg    Config      `json:"cfg"`
	Layers []layerJSON `json:"layers"`
}

type layerJSON struct {
	W   [][]float64 `json:"w"`
	B   []float64   `json:"b"`
	Act Activation  `json:"act"`
}

// MarshalJSON serialises the network weights.
func (n *Net) MarshalJSON() ([]byte, error) {
	nj := netJSON{Cfg: n.cfg}
	for _, ly := range n.layers {
		nj.Layers = append(nj.Layers, layerJSON{W: ly.W, B: ly.B, Act: ly.Act})
	}
	return json.Marshal(nj)
}

// UnmarshalJSON restores a serialised network.
func (n *Net) UnmarshalJSON(data []byte) error {
	var nj netJSON
	if err := json.Unmarshal(data, &nj); err != nil {
		return err
	}
	restored, err := New(nj.Cfg)
	if err != nil {
		return err
	}
	if len(restored.layers) != len(nj.Layers) {
		return fmt.Errorf("neural: layer count mismatch %d vs %d", len(restored.layers), len(nj.Layers))
	}
	// Validate every layer's shape against the config-derived skeleton before
	// applying anything: a truncated or hand-edited blob must fail loudly
	// here, not as an index panic inside Forward.
	for l, lj := range nj.Layers {
		want := restored.layers[l]
		if len(lj.W) != len(want.W) || len(lj.B) != len(want.B) {
			return fmt.Errorf("neural: layer %d shape mismatch: %d×?/%d, want %d×?/%d",
				l, len(lj.W), len(lj.B), len(want.W), len(want.B))
		}
		for o, row := range lj.W {
			if len(row) != len(want.W[o]) {
				return fmt.Errorf("neural: layer %d row %d has %d inputs, want %d",
					l, o, len(row), len(want.W[o]))
			}
		}
		if lj.Act != want.Act {
			return fmt.Errorf("neural: layer %d activation %q does not match config-derived %q",
				l, lj.Act, want.Act)
		}
		for _, row := range lj.W {
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("neural: layer %d has non-finite weight", l)
				}
			}
		}
		for _, v := range lj.B {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("neural: layer %d has non-finite bias", l)
			}
		}
	}
	for l, lj := range nj.Layers {
		restored.layers[l].W = lj.W
		restored.layers[l].B = lj.B
		restored.layers[l].Act = lj.Act
	}
	*n = *restored
	return nil
}

// OneHot builds a one-hot vector of length n with index i set.
func OneHot(n, i int) []float64 {
	v := make([]float64, n)
	if i >= 0 && i < n {
		v[i] = 1
	}
	return v
}
