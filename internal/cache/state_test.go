package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"darwin/internal/trace"
)

func serveSynthetic(t *testing.T, e Engine, n int, seed uint64) {
	t.Helper()
	x := seed
	for i := 0; i < n; i++ {
		// xorshift64 id stream with a zipf-ish fold, sized 1..16KiB.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		id := x % 500
		e.Serve(trace.Request{ID: id, Size: int64(1024 + id*13%15360)})
	}
}

func newStateTestConfig() Config {
	return Config{
		HOCBytes:     64 << 10,
		DCBytes:      1 << 20,
		Expert:       Expert{Freq: 1, MaxSize: 32 << 10},
		BloomObjects: 1 << 12,
	}
}

// TestHierarchyStateRoundTrip: a restored hierarchy is behaviourally
// indistinguishable from the original — same metrics, same residency, and
// identical results on a continued request stream.
func TestHierarchyStateRoundTrip(t *testing.T) {
	cfg := newStateTestConfig()
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveSynthetic(t, orig, 20_000, 0x9e3779b97f4a7c15)

	st := orig.State()
	// Serialise through JSON, as the checkpoint file does.
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded HierarchyState
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(&decoded); err != nil {
		t.Fatal(err)
	}

	if restored.Metrics() != orig.Metrics() {
		t.Fatalf("metrics diverge:\n restored %+v\n original %+v", restored.Metrics(), orig.Metrics())
	}
	if restored.HOCBytes() != orig.HOCBytes() || restored.DCBytes() != orig.DCBytes() ||
		restored.HOCLen() != orig.HOCLen() || restored.DCLen() != orig.DCLen() {
		t.Fatal("occupancy diverges after restore")
	}
	if restored.Expert() != orig.Expert() {
		t.Fatal("expert diverges after restore")
	}

	// Continued identical streams must produce identical outcomes — the
	// save→restore is bit-identical for every decision input.
	x := uint64(0xdeadbeefcafe)
	for i := 0; i < 20_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		id := x % 700
		r := trace.Request{ID: id, Size: int64(1024 + id*13%15360)}
		if a, b := orig.Serve(r), restored.Serve(r); a != b {
			t.Fatalf("request %d: original served %v, restored served %v", i, a, b)
		}
	}
	if restored.Metrics() != orig.Metrics() {
		t.Fatalf("post-continuation metrics diverge:\n restored %+v\n original %+v", restored.Metrics(), orig.Metrics())
	}

	// Snapshot-of-restore equals snapshot-of-original (bit-identical state).
	stA := orig.State()
	stB := restored.State()
	blobA, _ := json.Marshal(stA)
	blobB, _ := json.Marshal(stB)
	if string(blobA) != string(blobB) {
		t.Fatal("re-snapshot after restore is not bit-identical")
	}
}

// TestHierarchyRestoreRejectsCorruptState: every malformed snapshot is
// rejected whole — the target hierarchy keeps serving its own state.
func TestHierarchyRestoreRejectsCorruptState(t *testing.T) {
	cfg := newStateTestConfig()
	donor, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveSynthetic(t, donor, 5_000, 7)
	good := donor.State()

	corrupt := []struct {
		name string
		mut  func(st *HierarchyState)
	}{
		{"capacity-mismatch", func(st *HierarchyState) { st.HOCBytes++ }},
		{"eviction-mismatch", func(st *HierarchyState) { st.DCEviction = "lfu" }},
		{"negative-size", func(st *HierarchyState) { st.DC[0].Size = -5 }},
		{"duplicate-entry", func(st *HierarchyState) { st.DC[1] = st.DC[0] }},
		{"overflow", func(st *HierarchyState) { st.HOC[0].Size = st.HOCBytes + 1 }},
		{"bloom-garbage", func(st *HierarchyState) { st.Seen.Bits = st.Seen.Bits[:8] }},
		{"bloom-bad-k", func(st *HierarchyState) { st.Seen.K = 99 }},
		{"tracker-nil", func(st *HierarchyState) { st.Tracker = nil }},
		{"tracker-kind", func(st *HierarchyState) { st.Tracker.Kind = "quantum" }},
		{"tracker-arrays", func(st *HierarchyState) { st.Tracker.Counts = st.Tracker.Counts[:1] }},
		{"tracker-duplicate-id", func(st *HierarchyState) { st.Tracker.IDs[1] = st.Tracker.IDs[0] }},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			target, err := New(newStateTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			serveSynthetic(t, target, 1_000, 99)
			before := target.State()
			blobBefore, _ := json.Marshal(before)

			// Deep-copy the good snapshot via JSON, then corrupt it.
			blob, _ := json.Marshal(good)
			var bad HierarchyState
			if err := json.Unmarshal(blob, &bad); err != nil {
				t.Fatal(err)
			}
			tc.mut(&bad)
			if err := target.RestoreState(&bad); err == nil {
				t.Fatal("corrupt state accepted")
			}
			after := target.State()
			blobAfter, _ := json.Marshal(after)
			if string(blobBefore) != string(blobAfter) {
				t.Fatal("failed restore mutated the hierarchy (half-applied state)")
			}
		})
	}
}

func TestShardedStateRoundTrip(t *testing.T) {
	cfg := newStateTestConfig()
	orig, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	serveSynthetic(t, orig, 30_000, 0xabcdef)

	st := orig.State()
	restored, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if restored.Metrics() != orig.Metrics() {
		t.Fatalf("metrics diverge:\n restored %+v\n original %+v", restored.Metrics(), orig.Metrics())
	}
	// Restore is per shard, not only in aggregate.
	if restored.ShardMetrics(0) != orig.ShardMetrics(0) {
		t.Fatal("shard 0 metrics not restored")
	}
	x := uint64(31337)
	for i := 0; i < 10_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		id := x % 900
		r := trace.Request{ID: id, Size: int64(512 + id%8192)}
		if a, b := orig.Serve(r), restored.Serve(r); a != b {
			t.Fatalf("request %d diverged after sharded restore", i)
		}
	}

	wrong, err := NewSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.RestoreState(st); err == nil {
		t.Fatal("4-shard snapshot accepted by 2-shard engine")
	}
}

func TestRestoreDCKeepsNewestSuffix(t *testing.T) {
	cfg := newStateTestConfig()
	cfg.DCBytes = 1000
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Oldest-first journal live set totalling 1500 bytes: the oldest 500
	// must be dropped, the newest kept.
	entries := []ResidentObject{{ID: 1, Size: 500}, {ID: 2, Size: 400}, {ID: 3, Size: 600}}
	if err := h.RestoreDC(entries); err != nil {
		t.Fatal(err)
	}
	if resident(h.Lookup(1)) {
		t.Fatal("oldest entry should have been dropped")
	}
	if h.Lookup(2) != DCHit || h.Lookup(3) != DCHit {
		t.Fatal("newest entries should be DC-resident")
	}
	if h.DCBytes() != 1000 {
		t.Fatalf("DCBytes = %d, want 1000", h.DCBytes())
	}
	if err := h.RestoreDC([]ResidentObject{{ID: 9, Size: 0}}); err == nil {
		t.Fatal("zero-size journal entry accepted")
	}
}

// resident reports whether a Lookup answer is a hit at either level: Seen (a
// record without residency) is not.
func resident(r Result) bool { return r == HOCHit || r == DCHit }

// fakeDCLog records journal calls for hook-order assertions.
type fakeDCLog struct {
	puts, removes []uint64
}

func (f *fakeDCLog) Put(id uint64, size int64) { f.puts = append(f.puts, id) }
func (f *fakeDCLog) Remove(id uint64)          { f.removes = append(f.removes, id) }

func TestDCLogJournalHooks(t *testing.T) {
	log := &fakeDCLog{}
	h, err := New(Config{
		HOCBytes: 1 << 10,
		DCBytes:  1000,
		Expert:   Expert{Freq: 1 << 30, MaxSize: 1}, // never admit to HOC
		DCLog:    log,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := func(id uint64, size int64) {
		h.Serve(trace.Request{ID: id, Size: size})
	}
	// Second request admits to DC (bloom), journaling a put.
	req(1, 600)
	req(1, 600)
	if !reflect.DeepEqual(log.puts, []uint64{1}) {
		t.Fatalf("puts = %v, want [1]", log.puts)
	}
	// Admitting a second object evicts the first: journal remove then put.
	req(2, 600)
	req(2, 600)
	if !reflect.DeepEqual(log.removes, []uint64{1}) {
		t.Fatalf("removes = %v, want [1]", log.removes)
	}
	if !reflect.DeepEqual(log.puts, []uint64{1, 2}) {
		t.Fatalf("puts = %v, want [1 2]", log.puts)
	}
	// RestoreDC must not journal.
	np, nr := len(log.puts), len(log.removes)
	if err := h.RestoreDC([]ResidentObject{{ID: 5, Size: 10}}); err != nil {
		t.Fatal(err)
	}
	if len(log.puts) != np || len(log.removes) != nr {
		t.Fatal("RestoreDC wrote to the journal")
	}
}

// TestMergeDC: the drain-handoff merge admits donor residents the inheritor
// lacks, skips ones it already holds, evicts locals only under capacity
// pressure, and rejects invalid entries without mutating anything.
func TestMergeDC(t *testing.T) {
	cfg := newStateTestConfig()
	donor, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inheritor, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serveSynthetic(t, donor, 20_000, 0x9e3779b97f4a7c15)
	serveSynthetic(t, inheritor, 20_000, 0x123456789abcdef)

	st := donor.State()
	entries := append(append([]ResidentObject{}, st.HOC...), st.DC...)
	if len(entries) == 0 {
		t.Fatal("donor has no residents to merge")
	}

	// An invalid entry must reject the whole merge without touching state.
	preBytes, preLen := inheritor.DCBytes(), inheritor.DCLen()
	bad := append(append([]ResidentObject{}, entries...), ResidentObject{ID: 999999, Size: 0})
	if _, err := inheritor.MergeDC(bad); err == nil {
		t.Fatal("zero-size merge entry accepted")
	}
	if inheritor.DCBytes() != preBytes || inheritor.DCLen() != preLen {
		t.Fatal("rejected merge mutated the inheritor")
	}

	added, err := inheritor.MergeDC(entries)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("merge admitted nothing")
	}
	for _, e := range entries {
		if e.Size > cfg.DCBytes {
			continue
		}
		if !resident(inheritor.Lookup(e.ID)) {
			// Capacity pressure may have evicted the least-protected; the
			// donor's most-protected tail (end of the victim-first list) must
			// survive.
			continue
		}
	}
	// The most-protected donor DC resident is resident on the inheritor.
	if n := len(st.DC); n > 0 {
		if !resident(inheritor.Lookup(st.DC[n-1].ID)) {
			t.Fatalf("most-protected donor object %d not resident after merge", st.DC[n-1].ID)
		}
	}
	if inheritor.DCBytes() > cfg.DCBytes {
		t.Fatalf("merge overflowed DC: %d > %d", inheritor.DCBytes(), cfg.DCBytes)
	}
	// A merge that fits entirely is idempotent: re-merging admits nothing.
	cold, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := []ResidentObject{{ID: 1, Size: 100}, {ID: 2, Size: 200}, {ID: 3, Size: 300}}
	if n, err := cold.MergeDC(small); err != nil || n != 3 {
		t.Fatalf("small merge: n=%d err=%v", n, err)
	}
	if n, err := cold.MergeDC(small); err != nil || n != 0 {
		t.Fatalf("re-merge: n=%d err=%v, want 0 admits", n, err)
	}
}

// TestShardedMergeDC: entries route to their owning shards and the merged
// engine answers lookups for donor residents.
func TestShardedMergeDC(t *testing.T) {
	cfg := newStateTestConfig()
	cfg.DCBytes = 4 << 20 // roomy: the whole donor set fits, no merge churn
	donor, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	inheritor, err := NewSharded(cfg, 2) // shard counts need not match
	if err != nil {
		t.Fatal(err)
	}
	serveSynthetic(t, donor, 20_000, 0x9e3779b97f4a7c15)

	st := donor.State()
	var entries []ResidentObject
	for _, sh := range st.Shards {
		entries = append(entries, sh.HOC...)
		entries = append(entries, sh.DC...)
	}
	added, err := inheritor.MergeDC(entries)
	if err != nil {
		t.Fatal(err)
	}
	// Everything fits: each unique donor object (an id can appear in both
	// HOC and DC lists) is admitted exactly once and answers lookups.
	unique := map[uint64]bool{}
	for _, e := range entries {
		unique[e.ID] = true
	}
	if added != len(unique) {
		t.Fatalf("cold inheritor admitted %d entries, want %d unique", added, len(unique))
	}
	for id := range unique {
		if !resident(inheritor.Lookup(id)) {
			t.Fatalf("donor object %d not resident after sharded merge", id)
		}
	}
}

// statePins are the SHA-256 digests of the JSON checkpoint state, per
// eviction policy, recorded at commit da7068a — the last one whose per-object
// indexes were built-in maps. Same history, same bytes: the snapshot must not
// start depending on how the index lays its entries out.
var statePins = map[string]string{
	"lru":   "efcb76cb1832ae44f0eaab2b3851b94bfd3545d019b7e06c180833dae17b32fc",
	"fifo":  "89866b4db9d3b29b607289a5c292abf815fdf76a4330b93389b7c0f28fcb9406",
	"lfu":   "5ad4d0b651d4126425b929c4bf6b8e116277097548544438dc23b98f6424f2e8",
	"s4lru": "3737a97db02790149af21dd05381e737792d3ebc685622d2863ff301dcb54c7d",
	"gdsf":  "5ee1fc45fa6b307f975037a00dda814dc8ccaf76d582ababd6b82d266c121465",
}

func TestStateBytesPinned(t *testing.T) {
	for _, policy := range evictionPolicies {
		cfg := newStateTestConfig()
		cfg.HOCEviction, cfg.DCEviction = policy, policy
		eng, err := NewSharded(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 30_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			id := x % 3000 * (x%7 + 1) // 3000 hot ids and a long tail: the tracker grows, the levels churn
			eng.Serve(trace.Request{ID: id, Size: int64(1024 + id*13%15360)})
		}
		st := eng.State()
		for i, sh := range st.Shards {
			if ids := sh.Tracker.IDs; !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
				t.Errorf("%s: shard %d tracker ids are not sorted", policy, i)
			}
		}
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != statePins[policy] {
			t.Errorf("%s: state digest %s, pinned %s (%d bytes)", policy, got, statePins[policy], len(blob))
		}
	}
}
