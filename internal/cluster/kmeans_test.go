package cluster

import (
	"math/rand"
	"testing"
)

// blobs generates n points around each of the given centers with small noise.
func blobs(centers [][]float64, n int, noise float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float64
	var labels []int
	for ci, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(c))
			for j, v := range c {
				p[j] = v + rng.NormFloat64()*noise
			}
			pts = append(pts, p)
			labels = append(labels, ci)
		}
	}
	return pts, labels
}

func TestFitSeparatesBlobs(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	pts, labels := blobs(centers, 50, 0.5, 3)
	m, err := Fit(pts, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 3 {
		t.Fatalf("K = %d", m.K())
	}
	// Every true blob must map to a single fitted cluster, and different
	// blobs to different clusters.
	blobToCluster := map[int]int{}
	for i, p := range pts {
		c := m.Assign(p)
		if prev, ok := blobToCluster[labels[i]]; ok && prev != c {
			t.Fatalf("blob %d split across clusters %d and %d", labels[i], prev, c)
		}
		blobToCluster[labels[i]] = c
	}
	seen := map[int]bool{}
	for _, c := range blobToCluster {
		if seen[c] {
			t.Fatal("two blobs merged into one cluster")
		}
		seen[c] = true
	}
}

func TestFitDeterministic(t *testing.T) {
	pts, _ := blobs([][]float64{{0, 0}, {5, 5}}, 30, 1, 9)
	a, err := Fit(pts, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(pts, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("Fit not deterministic for fixed seed")
		}
	}
}

func TestAssignMatchesTrainingAssignments(t *testing.T) {
	pts, _ := blobs([][]float64{{0, 0}, {8, 8}}, 40, 0.3, 5)
	m, err := Fit(pts, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if got := m.Assign(p); got != m.Assignments[i] {
			t.Fatalf("Assign(%d) = %d, training assignment = %d", i, got, m.Assignments[i])
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, Config{K: 2, Seed: 1}); err == nil {
		t.Error("empty points accepted")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, Config{K: 2, Seed: 1}); err == nil {
		t.Error("ragged points accepted")
	}
	if _, err := Fit([][]float64{{1}}, Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestKClampedToPoints(t *testing.T) {
	pts := [][]float64{{1, 2}, {3, 4}}
	m, err := Fit(pts, Config{K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.K() > 2 {
		t.Fatalf("K = %d, want <= 2", m.K())
	}
}

func TestConstantDimensionHandled(t *testing.T) {
	// Second dimension constant: std=0 must not divide by zero.
	pts := [][]float64{{0, 5}, {1, 5}, {10, 5}, {11, 5}}
	m, err := Fit(pts, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Assign(pts[0]) == m.Assign(pts[2]) {
		t.Fatal("distinct groups along first dimension not separated")
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	m, err := Fit(pts, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Inertia != 0 {
		t.Fatalf("Inertia = %v for identical points", m.Inertia)
	}
}

func TestInertiaImprovesWithMoreClusters(t *testing.T) {
	pts, _ := blobs([][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}}, 25, 1, 8)
	m1, err := Fit(pts, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m4, err := Fit(pts, Config{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m4.Inertia >= m1.Inertia {
		t.Fatalf("inertia did not improve: k=1 %.2f vs k=4 %.2f", m1.Inertia, m4.Inertia)
	}
}
