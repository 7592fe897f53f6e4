package tracegen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"darwin/internal/par"
	"darwin/internal/trace"
)

func TestPredefinedClassesValid(t *testing.T) {
	for _, c := range []Class{Image(), Download(), Web(), Video(), Scan()} {
		if err := c.Validate(); err != nil {
			t.Errorf("class %s invalid: %v", c.Name, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := Image()
	cases := []func(*Class){
		func(c *Class) { c.Objects = 0 },
		func(c *Class) { c.ZipfS = 1.0 },
		func(c *Class) { c.ZipfV = 0.5 },
		func(c *Class) { c.MinSize = 0 },
		func(c *Class) { c.MaxSize = c.MinSize - 1 },
		func(c *Class) { c.RatePerSec = 0 },
	}
	for i, mut := range cases {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid class", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := ImageDownloadMix(50, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ImageDownloadMix(50, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
	c, err := ImageDownloadMix(50, 2000, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Requests {
		if a.Requests[i].ID == c.Requests[i].ID {
			same++
		}
	}
	if same == a.Len() {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateTimestampsMonotone(t *testing.T) {
	tr, err := ImageDownloadMix(30, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Requests[i].Time < tr.Requests[i-1].Time {
			t.Fatalf("time went backwards at %d", i)
		}
	}
}

func TestPerObjectSizeStable(t *testing.T) {
	tr, err := ImageDownloadMix(0, 20000, 9) // pure download: heavy reuse
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[uint64]int64{}
	for _, r := range tr.Requests {
		if prev, ok := sizes[r.ID]; ok && prev != r.Size {
			t.Fatalf("object %d changed size %d -> %d", r.ID, prev, r.Size)
		}
		sizes[r.ID] = r.Size
	}
}

func TestClassCharacteristics(t *testing.T) {
	img, err := ImageDownloadMix(100, 40000, 11)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := ImageDownloadMix(0, 40000, 11)
	if err != nil {
		t.Fatal(err)
	}
	si, sd := objectStatsOf(img), objectStatsOf(dl)
	// Image: many one-hit wonders; Download: few.
	ohwImg := float64(si.oneHitWonders) / float64(si.unique)
	ohwDl := float64(sd.oneHitWonders) / float64(sd.unique)
	if ohwImg < 0.3 {
		t.Errorf("image one-hit-wonder fraction %.2f too low", ohwImg)
	}
	if ohwDl > ohwImg {
		t.Errorf("download OHW fraction %.2f should be below image %.2f", ohwDl, ohwImg)
	}
	// Download objects are much larger on average.
	if sd.meanSize < 4*si.meanSize {
		t.Errorf("download mean size %.0f not >> image mean size %.0f", sd.meanSize, si.meanSize)
	}
	// Image catalog is much bigger (more unique objects in same-length trace).
	if si.unique < 4*sd.unique {
		t.Errorf("image uniques %d not >> download uniques %d", si.unique, sd.unique)
	}
}

// objectStats is what the class tests read of a trace.
type objectStats struct {
	unique        int     // distinct objects
	oneHitWonders int     // objects requested exactly once
	meanSize      float64 // mean requested size, per request
}

func objectStatsOf(tr *trace.Trace) objectStats {
	counts := make(map[uint64]int)
	var bytes int64
	for _, r := range tr.Requests {
		counts[r.ID]++
		bytes += r.Size
	}
	s := objectStats{unique: len(counts), meanSize: float64(bytes) / float64(tr.Len())}
	for _, c := range counts {
		if c == 1 {
			s.oneHitWonders++
		}
	}
	return s
}

func TestImageSmallObjectShare(t *testing.T) {
	// Paper: 71.9% of Image requests are for objects < 20 KB (scaled: 2 KB).
	tr, err := ImageDownloadMix(100, 40000, 3)
	if err != nil {
		t.Fatal(err)
	}
	small := 0
	for _, r := range tr.Requests {
		if r.Size < 2<<10 {
			small++
		}
	}
	if frac := float64(small) / float64(tr.Len()); frac < 0.55 {
		t.Errorf("image small-object request share %.2f, want majority", frac)
	}
}

func TestMixRatioRespected(t *testing.T) {
	tr, err := ImageDownloadMix(70, 30000, 5)
	if err != nil {
		t.Fatal(err)
	}
	imgReqs := 0
	for _, r := range tr.Requests {
		if r.ID>>40 == 0 { // class index 0 = image
			imgReqs++
		}
	}
	frac := float64(imgReqs) / float64(tr.Len())
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("image share %.3f, want ~0.70", frac)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(MixConfig{Requests: 0, Classes: []Class{Image()}}); err == nil {
		t.Error("Requests=0 accepted")
	}
	if _, err := Generate(MixConfig{Requests: 10}); err == nil {
		t.Error("no classes accepted")
	}
	if _, err := Generate(MixConfig{Requests: 10, Classes: []Class{Image()}, Weights: []float64{1, 2}}); err == nil {
		t.Error("weight/class mismatch accepted")
	}
	if _, err := Generate(MixConfig{Requests: 10, Classes: []Class{Image()}, Weights: []float64{0}}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := Generate(MixConfig{Requests: 10, Classes: []Class{Image()}, Weights: []float64{-1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := ImageDownloadMix(101, 10, 1); err == nil {
		t.Error("imagePct out of range accepted")
	}
}

func TestNamespacesDisjoint(t *testing.T) {
	tr, err := ImageDownloadMix(50, 10000, 13)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[uint64]bool{}
	for _, r := range tr.Requests {
		classes[r.ID>>40] = true
	}
	if len(classes) != 2 {
		t.Fatalf("expected 2 ID namespaces, got %d", len(classes))
	}
}

func TestScanClassNearlyOnePass(t *testing.T) {
	tr, err := Generate(MixConfig{Classes: []Class{Scan()}, Requests: 20000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(tr.Len()) / float64(objectStatsOf(tr).unique); ratio > 3 {
		t.Errorf("scan reuse ratio %.2f, want near 1", ratio)
	}
}

var sinkTrace *trace.Trace

// BenchmarkGenerate prices the generator per request: one Image:Download
// 50:50 trace of the length the sim-shift benchmark draws per segment
// (500k timed requests plus its 249k-request window span).
func BenchmarkGenerate(b *testing.B) {
	const requests = 749_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := ImageDownloadMix(50, requests, 11)
		if err != nil {
			b.Fatal(err)
		}
		sinkTrace = tr
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/req")
}

// digest is the FNV-64a hash of every request's (ID, Size, Time).
func digest(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, r := range tr.Requests {
		binary.LittleEndian.PutUint64(buf[0:], r.ID)
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.Size))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r.Time))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGenerateGolden pins every generated (ID, Size, Time) by an FNV-64a
// digest, so a rewrite of the sampler must reproduce the traces the
// experiments, goldens and benchmark were built on, request for request.
func TestGenerateGolden(t *testing.T) {
	scan, video := Scan(), Video()
	scan.ChurnRate = 0.05
	video.ChurnRate = 1.5
	cases := []struct {
		name string
		gen  func() (*trace.Trace, error)
		want uint64
	}{
		{"image0", func() (*trace.Trace, error) { return ImageDownloadMix(0, 50_000, 7) }, 0xdcad837ad0cdd3af},
		{"image50", func() (*trace.Trace, error) { return ImageDownloadMix(50, 50_000, 7) }, 0xf4aaf8a86f40a8ae},
		{"image100", func() (*trace.Trace, error) { return ImageDownloadMix(100, 50_000, 7) }, 0xc87baa12f5296b26},
		{"scan-video-churn", func() (*trace.Trace, error) {
			return Generate(MixConfig{Classes: []Class{scan, video}, Weights: []float64{70, 30}, Requests: 50_000, Seed: 7})
		}, 0x96c95ecb143fd207},
		// A zero-weight class between two others, and a length one past a
		// multiple of the mixer's chunk.
		{"web-scan0-download-churn", func() (*trace.Trace, error) {
			dl := Download()
			dl.ChurnRate = 0.3
			return Generate(MixConfig{Classes: []Class{Web(), Scan(), dl}, Weights: []float64{40, 0, 60}, Requests: 10*chunk + 1, Seed: 7})
		}, 0xbddd543460b4bbcf},
	}
	for _, c := range cases {
		tr, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(tr); got != c.want {
			t.Errorf("%s: digest %#016x, pinned %#016x", c.name, got, c.want)
		}
	}
}

func TestChurnMigratesPopularity(t *testing.T) {
	// With churn, the hot set drifts: the top objects of the first half
	// should overlap less with the second half than without churn.
	overlap := func(churn float64) float64 {
		c := Download()
		c.ChurnRate = churn
		tr, err := Generate(MixConfig{Classes: []Class{c}, Requests: 40000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		top := func(lo, hi int) map[uint64]bool {
			counts := map[uint64]int{}
			for _, r := range tr.Requests[lo:hi] {
				counts[r.ID]++
			}
			type kv struct {
				id uint64
				n  int
			}
			var all []kv
			for id, n := range counts {
				all = append(all, kv{id, n})
			}
			sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
			out := map[uint64]bool{}
			for i := 0; i < 50 && i < len(all); i++ {
				out[all[i].id] = true
			}
			return out
		}
		a := top(0, 20000)
		b := top(20000, 40000)
		shared := 0
		for id := range a {
			if b[id] {
				shared++
			}
		}
		return float64(shared) / 50
	}
	stationary := overlap(0)
	churned := overlap(0.05)
	if churned >= stationary {
		t.Fatalf("churn did not reduce hot-set overlap: %.2f vs %.2f", churned, stationary)
	}
	if stationary < 0.8 {
		t.Fatalf("stationary hot set unexpectedly unstable: %.2f", stationary)
	}
}

func TestChurnDeterministic(t *testing.T) {
	c := Image()
	c.ChurnRate = 0.01
	a, err := Generate(MixConfig{Classes: []Class{c}, Requests: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(MixConfig{Classes: []Class{c}, Requests: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatal("churned generation not deterministic")
		}
	}
}

// TestGenerateRejectsNonFinite: a NaN or infinite class parameter or weight,
// or a negative churn rate, is an error. Before Validate checked them, a
// non-finite ZipfS or ZipfV made Generate loop forever, so every case runs
// under a deadline.
func TestGenerateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		mut     func(*Class)
		weights []float64
	}{
		{"ZipfS-NaN", func(c *Class) { c.ZipfS = nan }, nil},
		{"ZipfS-Inf", func(c *Class) { c.ZipfS = inf }, nil},
		{"ZipfV-NaN", func(c *Class) { c.ZipfV = nan }, nil},
		{"ZipfV-Inf", func(c *Class) { c.ZipfV = inf }, nil},
		{"RatePerSec-NaN", func(c *Class) { c.RatePerSec = nan }, nil},
		{"RatePerSec-Inf", func(c *Class) { c.RatePerSec = inf }, nil},
		{"MeanLogSize-NaN", func(c *Class) { c.MeanLogSize = nan }, nil},
		{"MeanLogSize-Inf", func(c *Class) { c.MeanLogSize = inf }, nil},
		{"MeanLogSize-negInf", func(c *Class) { c.MeanLogSize = -inf }, nil},
		{"SigmaLogSize-NaN", func(c *Class) { c.SigmaLogSize = nan }, nil},
		{"SigmaLogSize-Inf", func(c *Class) { c.SigmaLogSize = inf }, nil},
		{"ChurnRate-negative", func(c *Class) { c.ChurnRate = -1 }, nil},
		{"ChurnRate-NaN", func(c *Class) { c.ChurnRate = nan }, nil},
		{"ChurnRate-Inf", func(c *Class) { c.ChurnRate = inf }, nil},
		{"weight-NaN", nil, []float64{nan, 1}},
		{"weight-Inf", nil, []float64{inf, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Download()
			if tc.mut != nil {
				tc.mut(&c)
				if c.Validate() == nil {
					t.Error("Validate accepted the class")
				}
			}
			done := make(chan error, 1)
			go func() {
				_, err := Generate(MixConfig{Classes: []Class{c, Image()}, Weights: tc.weights, Requests: 1000, Seed: 1})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Error("Generate accepted the mix")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Generate did not return within 10s")
			}
		})
	}
}

// TestGenerateClassLimit: a request's class is tagged in a byte, so a mix
// holds at most 256 classes.
func TestGenerateClassLimit(t *testing.T) {
	classes := make([]Class, maxClasses+1)
	for i := range classes {
		classes[i] = Download()
	}
	if _, err := Generate(MixConfig{Classes: classes, Requests: 10}); err == nil {
		t.Fatalf("%d classes accepted", len(classes))
	}
	tr, err := Generate(MixConfig{Classes: classes[:maxClasses], Requests: 4 * maxClasses, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if last := tr.Requests[tr.Len()-1].ID >> 40; last >= maxClasses {
		t.Fatalf("ID namespace %d out of range", last)
	}
}

// TestGenerateLeavesNoGoroutines: Generate's class workers are gone when it
// returns, whether it succeeds or fails.
func TestGenerateLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfgs := []MixConfig{
		{Classes: []Class{Image(), Download()}, Requests: 3*chunk + 5, Seed: 1},
		{Classes: []Class{Image(), Scan(), Download()}, Weights: []float64{1, 0, 1}, Requests: 100, Seed: 2},
		{Classes: []Class{Image()}, Requests: 0},
		{Classes: []Class{Image(), Download()}, Weights: []float64{1, math.NaN()}, Requests: 100},
		{Classes: []Class{Image(), Download()}, Weights: []float64{0, 0}, Requests: 100},
		{Classes: []Class{Image(), {Name: "bad"}}, Requests: 100},
	}
	for _, cfg := range cfgs {
		_, _ = Generate(cfg) // successes and failures alike
	}
	// A worker's deferred Done runs just before it exits, so allow it the
	// moment between the two.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Generate, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGenerateIndependentOfParWidth: traces generated inside par.ForEach
// tasks, at width 1 (inline, in order) and at width 4, equal the ones
// generated on their own.
func TestGenerateIndependentOfParWidth(t *testing.T) {
	const n = 4
	want := make([]uint64, n)
	for i := range want {
		tr, err := ImageDownloadMix(25*i, 2*chunk+3, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = digest(tr)
	}
	for _, width := range []int{1, 4} {
		prev := par.SetDefault(width)
		got := make([]uint64, n)
		err := par.ForEach(n, func(i int) error {
			tr, err := ImageDownloadMix(25*i, 2*chunk+3, int64(i))
			if err != nil {
				return err
			}
			got[i] = digest(tr)
			return nil
		})
		par.SetDefault(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("width %d: trace %d differs", width, i)
			}
		}
	}
}
