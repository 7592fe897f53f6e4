package tracegen

import (
	"math/rand"
	"testing"
)

// checkZipfMatchesRand draws n ranks from zipf (its table sized for budget
// draws) and from rand.Zipf, each on its own rng seeded alike, and fails on
// the first rank that differs or if the rngs end at different positions.
func checkZipfMatchesRand(t testing.TB, s, v float64, imax uint64, budget float64, n int, seed int64) {
	t.Helper()
	rz := rand.New(rand.NewSource(seed))
	rr := rand.New(rand.NewSource(seed))
	z := newZipf(rz, s, v, imax, budget)
	ref := rand.NewZipf(rr, s, v, imax)
	for i := 0; i < n; i++ {
		if got, want := z.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("s=%v v=%v imax=%d budget=%v seed=%d: draw %d is rank %d, rand.Zipf drew %d", s, v, imax, budget, seed, i, got, want)
		}
	}
	if got, want := rz.Int63(), rr.Int63(); got != want {
		t.Fatalf("s=%v v=%v imax=%d budget=%v seed=%d: rng positions differ after %d draws", s, v, imax, budget, seed, n)
	}
}

// TestZipfMatchesRand holds the sampler to rand.Zipf draw for draw: every
// predefined class's parameters plus the edges of the accepted range, each
// with a table sized for no draws, for fewer draws than the catalog, for
// about as many, and for far more (the whole catalog tabled).
func TestZipfMatchesRand(t *testing.T) {
	type params struct {
		name string
		s, v float64
		imax uint64
	}
	cases := []params{
		{"s-near-1", 1.0001, 10, 50_000},
		{"s-8", 8, 1, 10_000},
		{"v-1", 1.2, 1, 100_000},
		{"imax-0", 1.5, 2, 0},
	}
	for _, c := range []Class{Image(), Download(), Web(), Video(), Scan()} {
		cases = append(cases, params{c.Name, c.ZipfS, c.ZipfV, uint64(c.Objects - 1)})
	}
	draws := 500_000
	if testing.Short() {
		draws = 50_000
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			catalog := float64(c.imax + 1)
			for i, budget := range []float64{0, catalog / 10, catalog, 1000 * catalog} {
				checkZipfMatchesRand(t, c.s, c.v, c.imax, budget, draws, int64(i+1))
			}
		})
	}
}

// FuzzZipfMatchesRand checks the sampler against rand.Zipf at fuzzed
// parameters, table budget and seed.
func FuzzZipfMatchesRand(f *testing.F) {
	f.Add(1.25, 10.0, uint64(59_999), uint32(20_000), int64(1))
	f.Add(1.01, 100.0, uint64(199_999), uint32(100_000), int64(2))
	f.Add(8.0, 1.0, uint64(0), uint32(0), int64(3))
	f.Add(1e6, 1e300, uint64(1000), uint32(5000), int64(4))
	f.Fuzz(func(t *testing.T, s, v float64, imax uint64, draws uint32, seed int64) {
		// The parameters Class accepts, with catalogs and budgets kept small
		// enough for a fuzz iteration.
		if !finite(s) || !finite(v) || s <= 1 || v < 1 || imax > 1<<20 {
			t.Skip()
		}
		checkZipfMatchesRand(t, s, v, imax, float64(draws%(1<<20)), 2000, seed)
	})
}

var sinkRank uint64

// BenchmarkZipf prices the sampler per predefined class beside rand.Zipf:
// build is one newZipf with the table a 749k-request single-class trace
// builds, draw is one Uint64 from it.
func BenchmarkZipf(b *testing.B) {
	const requests = 749_000
	for _, c := range []Class{Image(), Download(), Web(), Video(), Scan()} {
		imax := uint64(c.Objects - 1)
		b.Run(c.Name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				sinkRank += uint64(len(newZipf(rng, c.ZipfS, c.ZipfV, imax, requests).lo))
			}
		})
		b.Run(c.Name+"/draw", func(b *testing.B) {
			z := newZipf(rand.New(rand.NewSource(1)), c.ZipfS, c.ZipfV, imax, requests)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkRank += z.Uint64()
			}
		})
		b.Run(c.Name+"/rand.Zipf", func(b *testing.B) {
			z := rand.NewZipf(rand.New(rand.NewSource(1)), c.ZipfS, c.ZipfV, imax)
			for i := 0; i < b.N; i++ {
				sinkRank += z.Uint64()
			}
		})
	}
}
