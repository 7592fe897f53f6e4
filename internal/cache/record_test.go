package cache

import (
	"encoding/json"
	"testing"

	"darwin/internal/trace"
)

// checkRecords asserts the record table's contract with the two levels and
// the filter: every handle a record holds names that record's id, each
// level holds exactly the objects whose records hold a handle for it, no
// resident object lacks a record, neither level is over capacity, and every
// record marked inFilter has its id in the filter (else a miss skipping the
// probes would answer differently from one that probed).
func checkRecords(t testing.TB, h *Hierarchy) {
	t.Helper()
	var inHOC, inDC int
	h.objs.each(func(id uint64, rec *objRec) {
		if rec.inFilter && !h.seen.ContainsU64(id) {
			t.Fatalf("record %d is marked inFilter, but the filter does not hold it", id)
		}
		if rec.hoc != noHandle {
			inHOC++
			if got := h.hoc.ID(rec.hoc); got != id {
				t.Fatalf("record %d holds HOC handle %d, which names %d", id, rec.hoc, got)
			}
		}
		if rec.dc != noHandle {
			inDC++
			if got := h.dc.ID(rec.dc); got != id {
				t.Fatalf("record %d holds DC handle %d, which names %d", id, rec.dc, got)
			}
		}
	})
	if h.hoc.Len() != inHOC || h.dc.Len() != inDC {
		t.Fatalf("levels hold %d/%d objects, records hold %d/%d handles", h.hoc.Len(), h.dc.Len(), inHOC, inDC)
	}
	for _, e := range h.hoc.Entries() {
		if rec := h.objs.get(e.ID); rec == nil || rec.hoc == noHandle {
			t.Fatalf("HOC-resident %d has no record pointing at it", e.ID)
		}
	}
	for _, e := range h.dc.Entries() {
		if rec := h.objs.get(e.ID); rec == nil || rec.dc == noHandle {
			t.Fatalf("DC-resident %d has no record pointing at it", e.ID)
		}
	}
	if h.HOCBytes() > h.hocCap || h.DCBytes() > h.dcCap {
		t.Fatalf("over capacity: HOC %d/%d DC %d/%d", h.HOCBytes(), h.hocCap, h.DCBytes(), h.dcCap)
	}
}

// fuzzEntries derives a short resident-object list from one byte, over the
// same small id alphabet the serves use.
func fuzzEntries(b byte) []ResidentObject {
	out := make([]ResidentObject, int(b%7))
	for k := range out {
		id := uint64(b/7+byte(k)*5) % 24
		out[k] = ResidentObject{ID: id, Size: fuzzSize(id, b+byte(k))}
	}
	return out
}

// fuzzSize spans tiny objects, ones that force several evictions, and ones
// larger than the HOC.
func fuzzSize(id uint64, b byte) int64 { return 1 + int64(id*37+uint64(b))%520 }

// FuzzHierarchy runs a decoded operation sequence — two bytes per op, kind
// and argument — against a small hierarchy under each of the five policies,
// and checks the record invariants after every step. The ops are Serve,
// Lookup, SetHOCEviction, RestoreDC, MergeDC, ResetCounts and a JSON state
// round trip into a fresh hierarchy. Beside the f.Add seeds below, inputs a
// fuzzing session found are in testdata/fuzz/FuzzHierarchy.
func FuzzHierarchy(f *testing.F) {
	// Serves only: admissions, promotions and evictions at both levels.
	f.Add([]byte{0, 3, 0, 3, 0, 3, 1, 3, 0, 40, 0, 40, 0, 40, 2, 77, 2, 77, 2, 77, 0, 3, 0, 200})
	// Every op once, a round trip last.
	f.Add([]byte{0, 5, 0, 5, 0, 5, 3, 5, 4, 2, 0, 5, 5, 130, 6, 99, 7, 0, 0, 5, 4, 4, 8, 0, 0, 5})
	// Reset with residents, then a policy switch and a round trip.
	f.Add([]byte{0, 9, 0, 9, 0, 9, 0, 9, 7, 1, 0, 9, 4, 1, 8, 1, 0, 9, 6, 250, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, policy := range evictionPolicies {
			cfg := Config{HOCBytes: 400, DCBytes: 1600, HOCEviction: policy, DCEviction: policy,
				Expert: Expert{Freq: 1, MaxSize: 300}, bloomObjects: 256}
			h, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+1 < len(data); i += 2 {
				arg := data[i+1]
				switch data[i] % 9 {
				case 0, 1, 2:
					id := uint64(arg % 24)
					h.Serve(trace.Request{ID: id, Size: fuzzSize(id, arg/24)})
				case 3:
					want := Miss
					switch rec := h.objs.get(uint64(arg % 24)); {
					case rec == nil:
					case rec.hoc != noHandle:
						want = HOCHit
					case rec.dc != noHandle:
						want = DCHit
					default:
						want = Seen
					}
					if got := h.Lookup(uint64(arg % 24)); got != want {
						t.Fatalf("Lookup = %v, records say %v", got, want)
					}
				case 4:
					if err := h.SetHOCEviction(evictionPolicies[int(arg)%len(evictionPolicies)]); err != nil {
						t.Fatal(err)
					}
				case 5:
					if err := h.RestoreDC(fuzzEntries(arg)); err != nil {
						t.Fatal(err)
					}
				case 6:
					if _, err := h.MergeDC(fuzzEntries(arg)); err != nil {
						t.Fatal(err)
					}
				case 7:
					h.ResetCounts()
				case 8:
					blob, err := json.Marshal(h.State())
					if err != nil {
						t.Fatal(err)
					}
					var st HierarchyState
					if err := json.Unmarshal(blob, &st); err != nil {
						t.Fatal(err)
					}
					rc := cfg
					rc.HOCEviction = st.HOCEviction
					if h, err = New(rc); err != nil {
						t.Fatal(err)
					}
					if err := h.RestoreState(&st); err != nil {
						t.Fatal(err)
					}
					again, _ := json.Marshal(h.State())
					if roundTripIsFixedPoint(&st) && string(again) != string(blob) {
						t.Fatal("state round trip changed the snapshot")
					}
				}
				checkRecords(t, h)
			}
		}
	})
}

// filterTestHierarchy has a DC of ten 100-byte objects, admits nothing to
// the HOC (the zero expert's size threshold is 0), and sizes its filter so
// that a false positive among the few dozen ids a test serves is out of the
// question.
func filterTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := New(Config{HOCBytes: 1000, DCBytes: 1000, bloomObjects: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// evictFromDC admits fresh 100-byte ids above *next, each served twice,
// until id is no longer DC-resident.
func evictFromDC(h *Hierarchy, id uint64, next *uint64) {
	for h.Lookup(id) == DCHit {
		*next++
		h.Serve(req(*next, 100))
		h.Serve(req(*next, 100))
	}
}

// TestPlacedRecordMissProbesFilter: an object placed in the DC by RestoreDC
// or MergeDC never went through the filter. Hit once, evicted and missed,
// it has count 2 — yet the filter does not hold it, so that miss must probe
// and not admit, exactly as before misses could skip the probes. (A rule
// of "count > 1 means already in the filter" admits it here.) Its next miss
// is its second trip through the filter and admits it.
func TestPlacedRecordMissProbesFilter(t *testing.T) {
	const id = 7
	for _, tc := range []struct {
		name  string
		place func(h *Hierarchy, e []ResidentObject) error
	}{
		{"RestoreDC", func(h *Hierarchy, e []ResidentObject) error { return h.RestoreDC(e) }},
		{"MergeDC", func(h *Hierarchy, e []ResidentObject) error { _, err := h.MergeDC(e); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := filterTestHierarchy(t)
			if err := tc.place(h, []ResidentObject{{ID: id, Size: 100}}); err != nil {
				t.Fatal(err)
			}
			if got := h.Serve(req(id, 100)); got != DCHit {
				t.Fatalf("first request of a placed object = %v, want DCHit", got)
			}
			next := uint64(1000)
			evictFromDC(h, id, &next)
			writes := h.Metrics().DCWrites
			if got := h.Serve(req(id, 100)); got != Miss || h.Count(id) != 2 {
				t.Fatalf("after eviction: %v at count %d, want a miss at count 2", got, h.Count(id))
			}
			if h.Lookup(id) != Seen || h.Metrics().DCWrites != writes {
				t.Fatal("admitted to the DC on its first trip through the filter")
			}
			checkRecords(t, h)
			h.Serve(req(id, 100))
			if h.Lookup(id) != DCHit {
				t.Fatalf("second miss left %v, want DC admission", h.Lookup(id))
			}
		})
	}
}

// TestRestoreStateMissProbesFilter: RestoreState installs the snapshot's
// filter and builds every record unmarked, so a restored object's first
// miss probes the filter it restored. The snapshot here holds a counted id
// its filter lacks (built by clearing the image; a RestoreDC'd object hit
// once and checkpointed is the same situation): the miss must not admit it,
// and must insert it.
func TestRestoreStateMissProbesFilter(t *testing.T) {
	const id = 7
	h := filterTestHierarchy(t)
	h.Serve(req(id, 2000)) // larger than the DC: never resident
	h.Serve(req(id, 2000)) // counted twice, through the filter twice
	if rec := h.objs.get(id); rec == nil || !rec.inFilter {
		t.Fatal("a missed record is not marked inFilter")
	}
	st := h.State()
	clear(st.Seen.Bits)
	r := filterTestHierarchy(t)
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if rec := r.objs.get(id); rec == nil || rec.count != 2 || rec.inFilter {
		t.Fatalf("restored record = %+v, want count 2 and no inFilter mark", rec)
	}
	if got := r.Serve(req(id, 100)); got != Miss || r.Lookup(id) != Seen {
		t.Fatalf("first miss after restore: %v, then %v; want a miss that does not admit", got, r.Lookup(id))
	}
	if !r.seen.ContainsU64(id) {
		t.Fatal("the first miss after restore did not insert into the filter")
	}
	checkRecords(t, r)
}

// roundTripIsFixedPoint reports whether restoring st and snapshotting again
// must give st back. Not under GDSF: a level's checkpoint is its entries in
// heap order, and re-inserting them recomputes priorities from frequency 1
// and inflation 0, which can reorder the heap.
func roundTripIsFixedPoint(st *HierarchyState) bool {
	return st.HOCEviction != "gdsf" && st.DCEviction != "gdsf"
}

// TestStateRoundTripResidencyOnlyRecords: records that hold residency but no
// count — left by RestoreDC and MergeDC for never-served ids, and by
// ResetCounts for every resident — survive State → RestoreState → State
// byte for byte, and under the policies whose checkpoint is their whole
// state (LRU and FIFO: an order, no hit history) the restored hierarchy
// serves exactly like the original.
func TestStateRoundTripResidencyOnlyRecords(t *testing.T) {
	for _, policy := range []string{"lru", "fifo", "lfu", "s4lru"} {
		cfg := newStateTestConfig()
		cfg.HOCEviction, cfg.DCEviction = policy, policy
		h, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serveSynthetic(t, h, 5_000, 0x51)
		live := h.State().DC
		for id := uint64(10_000); id < 10_020; id++ { // journal objects never served here
			live = append(live, ResidentObject{ID: id, Size: 2048})
		}
		if err := h.RestoreDC(live); err != nil {
			t.Fatal(err)
		}
		var donor []ResidentObject
		for id := uint64(20_000); id < 20_010; id++ {
			donor = append(donor, ResidentObject{ID: id, Size: 1024})
		}
		if n, err := h.MergeDC(donor); err != nil || n == 0 {
			t.Fatalf("%s: merge admitted %d: %v", policy, n, err)
		}
		h.ResetCounts()
		serveSynthetic(t, h, 300, 0x77) // some records counted again, most not
		countless := 0
		h.objs.each(func(_ uint64, rec *objRec) {
			if rec.count == 0 {
				countless++
			}
		})
		if countless == 0 {
			t.Fatalf("%s: no residency-only record to round-trip", policy)
		}
		checkRecords(t, h)

		blob, err := json.Marshal(h.State())
		if err != nil {
			t.Fatal(err)
		}
		var st HierarchyState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		restored, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreState(&st); err != nil {
			t.Fatal(err)
		}
		checkRecords(t, restored)
		if again, _ := json.Marshal(restored.State()); string(again) != string(blob) {
			t.Fatalf("%s: State → RestoreState → State is not byte-identical", policy)
		}
		if policy != "lru" && policy != "fifo" {
			continue
		}
		x := uint64(0xfeed)
		for i := 0; i < 5_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			id := x % 600
			switch {
			case id >= 550:
				id += 20_000 - 550 // the merged ids, and ids never seen
			case id >= 500:
				id += 10_000 - 500 // the journal-only ids, and ids never seen
			}
			r := trace.Request{ID: id, Size: int64(1024 + id*13%15360)}
			if a, b := h.Serve(r), restored.Serve(r); a != b {
				t.Fatalf("%s: request %d: original %v, restored %v", policy, i, a, b)
			}
		}
	}
}
