package cache

import (
	"reflect"
	"testing"

	"darwin/internal/trace"
	"darwin/internal/tracegen"
)

func mustHierarchy(t *testing.T, hocBytes, dcBytes int64, e Expert) *Hierarchy {
	t.Helper()
	h, err := New(Config{HOCBytes: hocBytes, DCBytes: dcBytes, Expert: e})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func req(id uint64, size int64) trace.Request { return trace.Request{ID: id, Size: size} }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{HOCBytes: 0, DCBytes: 1}); err == nil {
		t.Error("zero HOC accepted")
	}
	if _, err := New(Config{HOCBytes: 1, DCBytes: -1}); err == nil {
		t.Error("negative DC accepted")
	}
	if _, err := New(Config{HOCBytes: 1, DCBytes: 1, HOCEviction: "bogus"}); err == nil {
		t.Error("bogus eviction accepted")
	}
}

// Path of one object through the hierarchy with f=1:
// req1: miss (record marked), req2: miss (marked → DC admit, disk write),
// req3: DC hit, count=3 > f=1 → HOC promote, req4: HOC hit.
func TestRequestLifecycle(t *testing.T) {
	h := mustHierarchy(t, 1000, 10000, Expert{Freq: 1, MaxSize: 500})
	results := []Result{Miss, Miss, DCHit, HOCHit}
	for i, want := range results {
		if got := h.Serve(req(7, 100)); got != want {
			t.Fatalf("request %d = %v, want %v", i+1, got, want)
		}
	}
	m := h.Metrics()
	if m.Requests != 4 || m.Misses != 2 || m.DCHits != 1 || m.HOCHits != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.DCWrites != 1 || m.DCWriteBytes != 100 {
		t.Fatalf("disk writes = %d/%d, want 1/100", m.DCWrites, m.DCWriteBytes)
	}
	if m.HOCAdmits != 1 {
		t.Fatalf("HOCAdmits = %d", m.HOCAdmits)
	}
}

func TestFrequencyThresholdDelaysPromotion(t *testing.T) {
	// f=3: promote on the 4th request (count > 3), which is the 2nd DC hit.
	h := mustHierarchy(t, 1000, 10000, Expert{Freq: 3, MaxSize: 500})
	want := []Result{Miss, Miss, DCHit, DCHit, HOCHit}
	for i, w := range want {
		if got := h.Serve(req(1, 100)); got != w {
			t.Fatalf("request %d = %v, want %v", i+1, got, w)
		}
	}
}

func TestSizeThresholdBlocksPromotion(t *testing.T) {
	h := mustHierarchy(t, 1000, 10000, Expert{Freq: 1, MaxSize: 50})
	for i := 0; i < 6; i++ {
		if got := h.Serve(req(1, 100)); got == HOCHit {
			t.Fatalf("object above size threshold promoted (request %d)", i+1)
		}
	}
}

func TestRecencyKnob(t *testing.T) {
	e := Expert{Freq: 1, MaxSize: 500, MaxAge: 2}
	// Age = requests since previous request of the same object.
	if !e.Admit(3, 100, 1) {
		t.Error("recent object rejected")
	}
	if e.Admit(3, 100, 5) {
		t.Error("stale object admitted")
	}
	if e.Admit(3, 100, -1) {
		t.Error("never-seen object admitted under recency knob")
	}
}

func TestHOCEvictsLRUUnderPressure(t *testing.T) {
	h := mustHierarchy(t, 250, 10000, Expert{Freq: 0, MaxSize: 200})
	warm := func(id uint64) {
		h.Serve(req(id, 100)) // miss
		h.Serve(req(id, 100)) // miss → DC
		h.Serve(req(id, 100)) // DC hit → HOC (f=0: admit on any count>0)
	}
	warm(1)
	warm(2) // HOC: {1,2} = 200 bytes
	if levelLen(h.hoc) != 2 {
		t.Fatalf("HOCLen = %d, want 2", levelLen(h.hoc))
	}
	h.Serve(req(1, 100)) // HOC hit, 1 now MRU
	warm(3)              // needs 100 bytes → evicts LRU = 2
	if h.Lookup(1) != HOCHit || h.Lookup(2) == HOCHit || h.Lookup(3) != HOCHit {
		t.Fatalf("HOC contents wrong: 1=%v 2=%v 3=%v",
			h.Lookup(1) == HOCHit, h.Lookup(2) == HOCHit, h.Lookup(3) == HOCHit)
	}
	if h.hoc.Bytes() > 250 {
		t.Fatalf("HOC over capacity: %d", h.hoc.Bytes())
	}
}

func TestObjectLargerThanHOCNeverAdmitted(t *testing.T) {
	h := mustHierarchy(t, 100, 10000, Expert{Freq: 0, MaxSize: 1 << 20})
	for i := 0; i < 5; i++ {
		h.Serve(req(1, 500))
	}
	if levelLen(h.hoc) != 0 {
		t.Fatal("object larger than HOC capacity was admitted")
	}
	if m := h.Metrics(); m.DCHits == 0 {
		t.Fatal("object should still be served from DC")
	}
}

func TestObjectLargerThanDCNeverAdmitted(t *testing.T) {
	h := mustHierarchy(t, 100, 400, Expert{Freq: 0, MaxSize: 1 << 20})
	for i := 0; i < 4; i++ {
		if got := h.Serve(req(1, 500)); got != Miss {
			t.Fatalf("oversized object served from cache: %v", got)
		}
	}
	if m := h.Metrics(); m.DCWrites != 0 {
		t.Fatal("oversized object written to DC")
	}
}

// TestOneHitWondersNeverWrittenToDisk: a million distinct ids, each served
// once, write nothing to the DC. The second-request rule is exact at any
// scale; the fixed-size Bloom filter it replaced admitted 1,445 of these
// ids through false positives.
func TestOneHitWondersNeverWrittenToDisk(t *testing.T) {
	h := mustHierarchy(t, 1000, 100000, Expert{Freq: 1, MaxSize: 500})
	const n = 1_000_000
	for id := uint64(0); id < n; id++ {
		h.Serve(req(id, 100))
	}
	if m := h.Metrics(); m.Misses != n || m.DCWrites != 0 {
		t.Fatalf("%d one-hit wonders caused %d disk writes", m.Misses, m.DCWrites)
	}
}

func TestSetExpertTakesEffect(t *testing.T) {
	h := mustHierarchy(t, 1000, 10000, Expert{Freq: 100, MaxSize: 500})
	for i := 0; i < 5; i++ {
		h.Serve(req(1, 100))
	}
	if levelLen(h.hoc) != 0 {
		t.Fatal("expert f=100 should not admit")
	}
	h.SetExpert(Expert{Freq: 1, MaxSize: 500})
	h.Serve(req(1, 100)) // DC hit, count=6 > 1 → promote
	if levelLen(h.hoc) != 1 {
		t.Fatal("new expert did not take effect")
	}
	if h.ExpertSwitches() != 1 {
		t.Fatalf("ExpertSwitches = %d", h.ExpertSwitches())
	}
	h.SetExpert(h.Expert()) // no-op swap
	if h.ExpertSwitches() != 1 {
		t.Fatal("no-op SetExpert counted as a switch")
	}
}

func TestResetMetricsKeepsCacheState(t *testing.T) {
	h := mustHierarchy(t, 1000, 10000, Expert{Freq: 1, MaxSize: 500})
	for i := 0; i < 4; i++ {
		h.Serve(req(1, 100))
	}
	h.ResetMetrics()
	if got := h.Serve(req(1, 100)); got != HOCHit {
		t.Fatalf("after reset, request = %v, want HOCHit (cache state kept)", got)
	}
	m := h.Metrics()
	if m.Requests != 1 || m.HOCHits != 1 {
		t.Fatalf("metrics after reset = %+v", m)
	}
}

func TestMetricsDerived(t *testing.T) {
	m := Metrics{Requests: 10, Bytes: 1000, HOCHits: 4, HOCHitBytes: 300, DCHits: 3, DCWriteBytes: 50}
	if m.OHR() != 0.4 {
		t.Fatalf("OHR = %v", m.OHR())
	}
	if m.TotalOHR() != 0.7 {
		t.Fatalf("TotalOHR = %v", m.TotalOHR())
	}
	if m.BMR() != 0.7 {
		t.Fatalf("BMR = %v", m.BMR())
	}
	if m.DiskWritesPerRequest() != 5 {
		t.Fatalf("DiskWritesPerRequest = %v", m.DiskWritesPerRequest())
	}
	var zero Metrics
	if zero.OHR() != 0 || zero.BMR() != 0 || zero.TotalOHR() != 0 || zero.DiskWritesPerRequest() != 0 {
		t.Fatal("zero metrics should yield zero ratios")
	}
}

func TestMetricsSub(t *testing.T) {
	a := Metrics{Requests: 10, HOCHits: 5, Bytes: 100}
	b := Metrics{Requests: 4, HOCHits: 2, Bytes: 40}
	d := a.Sub(b)
	if d.Requests != 6 || d.HOCHits != 3 || d.Bytes != 60 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestCapacityInvariantUnderLoad(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 30000, 21)
	if err != nil {
		t.Fatal(err)
	}
	h := mustHierarchy(t, 64<<10, 1<<20, Expert{Freq: 2, MaxSize: 10 << 10})
	for _, r := range tr.Requests {
		h.Serve(r)
		if h.hoc.Bytes() > 64<<10 {
			t.Fatalf("HOC over capacity: %d", h.hoc.Bytes())
		}
		if h.dc.Bytes() > 1<<20 {
			t.Fatalf("DC over capacity: %d", h.dc.Bytes())
		}
	}
	if m := h.Metrics(); m.Requests != int64(tr.Len()) {
		t.Fatalf("Requests = %d", m.Requests)
	}
}

func TestResultString(t *testing.T) {
	if HOCHit.String() != "hoc-hit" || DCHit.String() != "dc-hit" || Miss.String() != "miss" || Seen.String() != "seen" {
		t.Fatal("Result strings wrong")
	}
	if Result(9).String() == "" {
		t.Fatal("unknown result should still render")
	}
}

// evictionPolicies names every policy NewEvictionWithCapacity builds.
var evictionPolicies = []string{"lru", "fifo", "lfu", "s4lru", "gdsf"}

// TestServeCountAndAge pins the frequency and recency knobs' inputs as Serve
// hands them to admission — count including this request, age in requests
// since the previous one, -1 when first seen — and what ResetCounts does to
// them: a resident object's next request reads as its first again, it
// stays resident, and an object that missed keeps its mark.
func TestServeCountAndAge(t *testing.T) {
	h := mustHierarchy(t, 1000, 10000, Expert{})
	var count int
	var age int64
	// A custom admission sees every request, misses too: nothing reaches the HOC.
	h.SetAdmission(func(c int, _ int64, a int64) bool { count, age = c, a; return false })
	serve := func(id uint64, wantCount int, wantAge int64) Result {
		t.Helper()
		res := h.Serve(req(id, 100))
		if count != wantCount || age != wantAge {
			t.Fatalf("serve %d: (count, age) = (%d, %d), want (%d, %d)", id, count, age, wantCount, wantAge)
		}
		return res
	}
	serve(1, 1, -1) // request 0
	serve(9, 1, -1) // 1: seen once, never resident
	serve(2, 1, -1) // 2
	serve(2, 2, 1)  // 3: second request, DC admission
	serve(1, 2, 4)  // 4: DC admission
	if got := serve(1, 3, 1); got != DCHit {
		t.Fatalf("request 5 = %v, want DCHit", got)
	}
	if h.Count(1) != 3 || h.Count(2) != 2 || h.Count(9) != 1 || h.Count(7) != 0 {
		t.Fatalf("Count = %d %d %d %d", h.Count(1), h.Count(2), h.Count(9), h.Count(7))
	}

	h.ResetCounts()
	if h.Count(1) != 0 || h.Count(9) != 0 || h.Lookup(1) != DCHit || h.Lookup(2) != DCHit {
		t.Fatal("ResetCounts must zero counts and keep residency")
	}
	if got := serve(1, 1, -1); got != DCHit { // resident, but counted as first seen
		t.Fatalf("after ResetCounts = %v, want DCHit", got)
	}
	if got := serve(9, 1, -1); got != Miss || h.Lookup(9) != DCHit { // its mark survived: a second miss
		t.Fatalf("after ResetCounts, id 9's second miss = %v and left %v, want a DC admission", got, h.Lookup(9))
	}
	serve(1, 2, 2)
	// Id 2 is listed for its mark alone.
	tr := h.State().Tracker
	if want := (TrackerState{IDs: []uint64{1, 2, 9}, Counts: []int{2, 0, 1},
		LastSeen: []int64{8, 0, 7}, Missed: []bool{true, true, true}}); !reflect.DeepEqual(*tr, want) {
		t.Fatalf("tracker state after ResetCounts = %+v, want %+v", *tr, want)
	}
}

// TestSetHOCEvictionRelabelsState: after an eviction switch the snapshot
// names the policy its HOC entries are ordered by, so it restores only into
// a hierarchy running that policy.
func TestSetHOCEvictionRelabelsState(t *testing.T) {
	cfg := newStateTestConfig()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveSynthetic(t, h, 5_000, 3)
	if err := h.SetHOCEviction("lfu"); err != nil {
		t.Fatal(err)
	}
	st := h.State()
	if st.HOCEviction != "lfu" {
		t.Fatalf("State().HOCEviction = %q after switching to lfu", st.HOCEviction)
	}
	lru, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lru.RestoreState(st); err == nil {
		t.Fatal("an lfu-ordered HOC restored into an lru hierarchy")
	}
	cfg.HOCEviction = "lfu"
	lfu, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := lfu.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, lfu, false)
}

// TestServeZeroAllocs pins the request path at zero allocations for every
// policy, on the bare hierarchy and through a shard lock, once the record
// table and the policies' pools have reached the trace's high-water mark.
func TestServeZeroAllocs(t *testing.T) {
	tr, err := tracegen.ImageDownloadMix(50, 20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range evictionPolicies {
		t.Run(policy, func(t *testing.T) {
			cfg := Config{HOCBytes: 256 << 10, DCBytes: 8 << 20, HOCEviction: policy,
				Expert: Expert{Freq: 2, MaxSize: 10 << 10}}
			h, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSharded(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []Engine{h, s} {
				for _, r := range tr.Requests {
					e.Serve(r)
				}
				i := 0
				allocs := testing.AllocsPerRun(len(tr.Requests), func() {
					e.Serve(tr.Requests[i%len(tr.Requests)])
					i++
				})
				if allocs != 0 {
					t.Fatalf("%T.Serve: %v allocs per request", e, allocs)
				}
			}
		})
	}
}

// BenchmarkServe prices one Hierarchy.Serve on the 50:50 mix, per HOC
// policy (the DC is LRU).
func BenchmarkServe(b *testing.B) {
	tr, err := tracegen.ImageDownloadMix(50, 100000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range evictionPolicies {
		b.Run(policy, func(b *testing.B) {
			h, err := New(Config{HOCBytes: 2 << 20, DCBytes: 200 << 20, HOCEviction: policy,
				Expert: Expert{Freq: 2, MaxSize: 10 << 10}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Serve(tr.Requests[i%tr.Len()])
			}
		})
	}
}
