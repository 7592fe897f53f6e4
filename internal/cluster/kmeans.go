// Package cluster implements the unsupervised trace clustering of Darwin's
// offline phase (Appendix A.1): feature vectors are z-score standardised and
// grouped with K-means (k-means++ seeding, Lloyd iterations). The resulting
// model maps an online feature estimate to its nearest cluster.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// Model is a fitted K-means clustering over standardised features.
type Model struct {
	// Centroids are in standardised space, one per cluster.
	Centroids [][]float64
	// Mean and Std are the per-dimension standardisation parameters learned
	// from the training set.
	Mean, Std []float64
	// Assignments holds the training points' cluster indices.
	Assignments []int
	// Inertia is the final sum of squared distances to assigned centroids.
	Inertia float64
}

// Config controls fitting.
type Config struct {
	// K is the number of clusters (paper: 52 over its offline set).
	K int
	// Seed makes fitting deterministic.
	Seed int64
}

// Fit's search: restarts k-means++ seedings, each followed by at most maxIter
// Lloyd iterations.
const (
	restarts = 4
	maxIter  = 100
)

// Fit clusters the given feature vectors, keeping the restart with the least
// inertia.
func Fit(points [][]float64, cfg Config) (*Model, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("cluster: K must be > 0, got %d", cfg.K)
	}
	if cfg.K > len(points) {
		cfg.K = len(points)
	}

	mean, std := standardiseParams(points)
	z := make([][]float64, len(points))
	for i, p := range points {
		z[i] = standardise(p, mean, std)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var best *Model
	for r := 0; r < restarts; r++ {
		cents := seedPlusPlus(z, cfg.K, rng)
		assign := make([]int, len(z))
		var inertia float64
		for iter := 0; iter < maxIter; iter++ {
			changed := false
			inertia = 0
			for i, p := range z {
				ci, d := nearest(cents, p)
				if ci != assign[i] {
					assign[i] = ci
					changed = true
				}
				inertia += d
			}
			recompute(cents, z, assign, rng)
			if !changed && iter > 0 {
				break
			}
		}
		if best == nil || inertia < best.Inertia {
			best = &Model{
				Centroids:   cents,
				Mean:        mean,
				Std:         std,
				Assignments: append([]int(nil), assign...),
				Inertia:     inertia,
			}
		}
	}
	return best, nil
}

// K returns the number of clusters.
func (m *Model) K() int { return len(m.Centroids) }

// Assign returns the nearest cluster for a raw (unstandardised) feature
// vector.
func (m *Model) Assign(p []float64) int {
	ci, _ := nearest(m.Centroids, standardise(p, m.Mean, m.Std))
	return ci
}

func standardiseParams(points [][]float64) (mean, std []float64) {
	dim := len(points[0])
	mean = make([]float64, dim)
	std = make([]float64, dim)
	for _, p := range points {
		for j, v := range p {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(points))
	}
	for _, p := range points {
		for j, v := range p {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(points)))
		if std[j] == 0 {
			std[j] = 1 // constant dimension: leave centred values at 0
		}
	}
	return mean, std
}

func standardise(p, mean, std []float64) []float64 {
	out := make([]float64, len(p))
	for j, v := range p {
		out[j] = (v - mean[j]) / std[j]
	}
	return out
}

func sqDist(a, b []float64) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		d += x * x
	}
	return d
}

func nearest(cents [][]float64, p []float64) (int, float64) {
	bi, bd := 0, math.Inf(1)
	for i, c := range cents {
		if d := sqDist(c, p); d < bd {
			bi, bd = i, d
		}
	}
	return bi, bd
}

// seedPlusPlus picks k initial centroids with k-means++ weighting.
func seedPlusPlus(z [][]float64, k int, rng *rand.Rand) [][]float64 {
	cents := make([][]float64, 0, k)
	first := z[rng.Intn(len(z))]
	cents = append(cents, append([]float64(nil), first...))
	d2 := make([]float64, len(z))
	for len(cents) < k {
		var total float64
		for i, p := range z {
			_, d := nearest(cents, p)
			d2[i] = d
			total += d
		}
		if total == 0 {
			// All remaining points coincide with centroids; duplicate one.
			cents = append(cents, append([]float64(nil), z[rng.Intn(len(z))]...))
			continue
		}
		r := rng.Float64() * total
		var acc float64
		pick := len(z) - 1
		for i, d := range d2 {
			acc += d
			if acc >= r {
				pick = i
				break
			}
		}
		cents = append(cents, append([]float64(nil), z[pick]...))
	}
	return cents
}

// recompute moves each centroid to the mean of its members; empty clusters
// are re-seeded on a random point.
func recompute(cents [][]float64, z [][]float64, assign []int, rng *rand.Rand) {
	dim := len(z[0])
	counts := make([]int, len(cents))
	for i := range cents {
		for j := 0; j < dim; j++ {
			cents[i][j] = 0
		}
	}
	for i, p := range z {
		c := assign[i]
		counts[c]++
		for j, v := range p {
			cents[c][j] += v
		}
	}
	for i := range cents {
		if counts[i] == 0 {
			copy(cents[i], z[rng.Intn(len(z))])
			continue
		}
		for j := range cents[i] {
			cents[i][j] /= float64(counts[i])
		}
	}
}
