package cache

import (
	"encoding/json"
	"sort"
	"testing"

	"darwin/internal/trace"
)

// checkRecords asserts the record table's contract with the two levels:
// every handle a record holds carries that record's slot (so the slot an
// eviction clears, and reads the victim's id from, is the victim's own),
// each level's Entries yields exactly the slots of the records that hold a
// handle for it, at that handle's size, neither level is over capacity, and
// a marked record has a count or was aged by ResetCounts — aged says whether
// h's history (or that of a snapshot it restored) includes one. A mark is
// set only by a miss, which counts.
func checkRecords(t testing.TB, h *Hierarchy, aged bool) {
	t.Helper()
	var inHOC, inDC int
	for i := range h.objs.slots {
		rec := &h.objs.slots[i]
		if !rec.used {
			continue
		}
		id := rec.key
		if rec.missed && rec.count == 0 && !aged {
			t.Fatalf("record %d is marked but has no count, and no ResetCounts ran", id)
		}
		if rec.hoc != noHandle {
			inHOC++
			if got := h.hoc.Slot(rec.hoc); got != uint32(i) {
				t.Fatalf("record %d at slot %d holds HOC handle %d, which carries slot %d", id, i, rec.hoc, got)
			}
		}
		if rec.dc != noHandle {
			inDC++
			if got := h.dc.Slot(rec.dc); got != uint32(i) {
				t.Fatalf("record %d at slot %d holds DC handle %d, which carries slot %d", id, i, rec.dc, got)
			}
		}
	}
	if levelLen(h.hoc) != inHOC || levelLen(h.dc) != inDC {
		t.Fatalf("levels hold %d/%d objects, records hold %d/%d handles", levelLen(h.hoc), levelLen(h.dc), inHOC, inDC)
	}
	h.hoc.Entries(func(slot uint32, size int64) {
		if rec := &h.objs.slots[slot]; !rec.used || rec.hoc == noHandle || h.hoc.Size(rec.hoc) != size {
			t.Fatalf("HOC-resident slot %d (size %d) has no record holding it", slot, size)
		}
	})
	h.dc.Entries(func(slot uint32, size int64) {
		if rec := &h.objs.slots[slot]; !rec.used || rec.dc == noHandle || h.dc.Size(rec.dc) != size {
			t.Fatalf("DC-resident slot %d (size %d) has no record holding it", slot, size)
		}
	})
	if h.hoc.Bytes() > h.hocCap || h.dc.Bytes() > h.dcCap {
		t.Fatalf("over capacity: HOC %d/%d DC %d/%d", h.hoc.Bytes(), h.hocCap, h.dc.Bytes(), h.dcCap)
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

// fuzzSize spans zero-byte objects, tiny ones, ones that force several
// evictions, and ones larger than the HOC.
func fuzzSize(id uint64, b byte) int64 { return int64(id*37+uint64(b)) % 521 }

// FuzzHierarchy runs a decoded operation sequence — two bytes per op, kind
// and argument — against a small hierarchy under each of the five policies,
// and checks the record invariants after every step. The ops are Serve,
// Lookup, SetHOCEviction, RestoreDC, MergeDC, ResetCounts and a JSON state
// round trip, through the decode-side validate, into a fresh hierarchy. The
// 24-id alphabet grows the record table from 8 to 16 and then 32 slots, each
// time moving the records whose slots the levels' handles carry. An
// exact "missed before" set is the oracle for DC admission: a Serve that
// misses writes to the DC if and only if the set holds its id and its size
// fits the DC, and no other op changes the set, because the mark persists.
// The hierarchy journals to a recording DCLog, whose replayed puts and
// removes must be the DC's residents after every op: the journal reads each
// id, an evicted victim's too, through a slot the moves above rewrite.
// Beside the f.Add seeds below, inputs a fuzzing session found are in
// testdata/fuzz/FuzzHierarchy.
func FuzzHierarchy(f *testing.F) {
	// Serves only: admissions, promotions and evictions at both levels.
	f.Add([]byte{0, 3, 0, 3, 0, 3, 1, 3, 0, 40, 0, 40, 0, 40, 2, 77, 2, 77, 2, 77, 0, 3, 0, 200})
	// Every op once, a round trip last.
	f.Add([]byte{0, 5, 0, 5, 0, 5, 3, 5, 4, 2, 0, 5, 5, 130, 6, 99, 7, 0, 0, 5, 4, 4, 8, 0, 0, 5})
	// Reset with residents, then a policy switch and a round trip.
	f.Add([]byte{0, 9, 0, 9, 0, 9, 0, 9, 7, 1, 0, 9, 4, 1, 8, 1, 0, 9, 6, 250, 8, 1})
	// Every id three times — a miss, a DC admission, a promotion — so both
	// levels hold objects when each growth moves the records; then every
	// op that rebuilds the table or a level.
	var grow []byte
	for id := byte(0); id < 24; id++ {
		grow = append(grow, 0, id, 0, id, 0, id)
	}
	f.Add(append(grow, 7, 0, 4, 3, 6, 40, 5, 90, 8, 0, 0, 1, 0, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, policy := range evictionPolicies {
			j := journal{}
			cfg := Config{HOCBytes: 400, DCBytes: 1600, HOCEviction: policy,
				Expert: Expert{Freq: 1, MaxSize: 300}, DCLog: j}
			h, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			missed, aged := map[uint64]bool{}, false
			for i := 0; i+1 < len(data); i += 2 {
				arg := data[i+1]
				switch data[i] % 9 {
				case 0, 1, 2:
					id := uint64(arg % 24)
					size := fuzzSize(id, arg/24)
					writes := h.Metrics().DCWrites
					res := h.Serve(trace.Request{ID: id, Size: size})
					wrote := h.Metrics().DCWrites != writes
					if want := res == Miss && missed[id] && size <= cfg.DCBytes; wrote != want {
						t.Fatalf("%v of id %d (size %d, missed before: %v) wrote to the DC: %v", res, id, size, missed[id], wrote)
					}
					if res == Miss {
						missed[id] = true
					}
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
					entries := fuzzEntries(arg)
					if err := h.RestoreDC(entries); err != nil {
						t.Fatal(err)
					}
					// RestoreDC journals nothing: it is handed the journal's
					// live set, and keeps the newest suffix of it that fits.
					clear(j)
					var total int64
					for k := len(entries) - 1; k >= 0 && entries[k].Size <= cfg.DCBytes-total; k-- {
						total += entries[k].Size
						j[entries[k].ID] = entries[k].Size
					}
				case 6:
					if _, err := h.MergeDC(fuzzEntries(arg)); err != nil {
						t.Fatal(err)
					}
				case 7:
					h.ResetCounts()
					aged = true
				case 8:
					blob, err := json.Marshal(h.State())
					if err != nil {
						t.Fatal(err)
					}
					var st HierarchyState
					if err := json.Unmarshal(blob, &st); err != nil {
						t.Fatal(err)
					}
					if err := st.validate(); err != nil {
						t.Fatalf("the hierarchy's own snapshot fails validation: %v", err)
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
					if string(canonicalState(t, again, &st)) != string(canonicalState(t, blob, &st)) {
						t.Fatal("state round trip changed the snapshot")
					}
				}
				checkRecords(t, h, aged)
				checkJournal(t, h, j)
				h.objs.each(func(id uint64, rec *objRec) {
					if rec.missed != missed[id] {
						t.Fatalf("record %d is marked %v, the oracle says %v", id, rec.missed, missed[id])
					}
				})
				for id := range missed {
					if rec := h.objs.get(id); rec == nil {
						t.Fatalf("id %d missed before but has no record", id)
					}
				}
			}
		}
	})
}

// journal is a recording DCLog: the DC's contents as a replay of its puts
// and removes.
type journal map[uint64]int64

func (j journal) Put(id uint64, size int64) { j[id] = size }
func (j journal) Remove(id uint64)          { delete(j, id) }

// checkJournal asserts that j replays to exactly the DC's residents, read
// id by id from the records that hold a DC handle.
func checkJournal(t testing.TB, h *Hierarchy, j journal) {
	t.Helper()
	n := 0
	h.objs.each(func(id uint64, rec *objRec) {
		if rec.dc == noHandle {
			return
		}
		n++
		if size, ok := j[id]; !ok || size != h.dc.Size(rec.dc) {
			t.Fatalf("DC holds %d at size %d; the journal replays %v", id, h.dc.Size(rec.dc), j)
		}
	})
	if n != len(j) {
		t.Fatalf("DC holds %d objects; the journal replays %d: %v", n, len(j), j)
	}
}

// dcTestHierarchy has a DC of ten 100-byte objects and admits nothing
// to the HOC (the zero expert's size threshold is 0).
func dcTestHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := New(Config{HOCBytes: 1000, DCBytes: 1000})
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

// TestPlacedRecordMissProbesFilter: the DC's admission filter is the
// record's missed mark. An object placed in the DC by RestoreDC or MergeDC
// has never missed. Hit once, evicted and missed, it
// has count 2 — yet this is its first miss, so it must not be admitted. (A
// rule of "count > 1 means missed before" admits it here.) Its next miss
// is its second and admits it.
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
			h := dcTestHierarchy(t)
			if err := tc.place(h, []ResidentObject{{ID: id, Size: 100}}); err != nil {
				t.Fatal(err)
			}
			if rec := h.objs.get(id); rec == nil || rec.missed {
				t.Fatalf("placed record = %+v, want one without a mark", rec)
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
				t.Fatal("admitted to the DC on its first miss")
			}
			checkRecords(t, h, false)
			h.Serve(req(id, 100))
			if h.Lookup(id) != DCHit {
				t.Fatalf("second miss left %v, want DC admission", h.Lookup(id))
			}
		})
	}
}

// TestRestoreStateMissProbesFilter: the DC's admission filter is the
// record's missed mark, and a checkpoint carries the mark, so a
// record that missed once before the snapshot — then was aged by
// ResetCounts, so it has no count either — round-trips marked, and its
// first miss after restore is its second and admits it. A record that was
// only placed round-trips unmarked and is not admitted on its first miss.
func TestRestoreStateMissProbesFilter(t *testing.T) {
	const missedID, placedID = 7, 8
	h := dcTestHierarchy(t)
	h.Serve(req(missedID, 100)) // first miss: marked, not admitted
	if err := h.RestoreDC([]ResidentObject{{ID: placedID, Size: 100}}); err != nil {
		t.Fatal(err)
	}
	h.Serve(req(placedID, 100)) // a DC hit: counted, not marked
	h.ResetCounts()
	blob, err := json.Marshal(h.State())
	if err != nil {
		t.Fatal(err)
	}
	var st HierarchyState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if err := st.validate(); err != nil {
		t.Fatal(err)
	}
	if tr := st.Tracker; len(tr.IDs) != 1 || tr.IDs[0] != missedID || tr.Counts[0] != 0 || !tr.Missed[0] {
		t.Fatalf("tracker = %+v, want only id %d, uncounted and marked", tr, missedID)
	}
	r := dcTestHierarchy(t)
	if err := r.RestoreState(&st); err != nil {
		t.Fatal(err)
	}
	if rec := r.objs.get(missedID); rec == nil || rec.count != 0 || !rec.missed {
		t.Fatalf("restored record = %+v, want count 0 and the mark", rec)
	}
	checkRecords(t, r, true)
	if again, _ := json.Marshal(r.State()); string(again) != string(blob) {
		t.Fatal("State → RestoreState → State is not byte-identical")
	}
	if got := r.Serve(req(missedID, 100)); got != Miss || r.Lookup(missedID) != DCHit {
		t.Fatalf("first miss after restore: %v, then %v; want a miss that admits", got, r.Lookup(missedID))
	}
	next := uint64(1000)
	evictFromDC(r, placedID, &next)
	writes := r.Metrics().DCWrites
	if got := r.Serve(req(placedID, 100)); got != Miss || r.Lookup(placedID) != Seen || r.Metrics().DCWrites != writes {
		t.Fatalf("placed object's first miss after restore: %v, then %v; want a miss that does not admit", got, r.Lookup(placedID))
	}
	checkRecords(t, r, true)
}

// canonicalState returns blob, a snapshot of a hierarchy configured as st,
// in the form a round trip must leave byte-identical: the snapshot itself,
// marks and all, except that a GDSF HOC lists its entries sorted by id.
// A level's checkpoint is its entries in heap order, and re-inserting them
// into GDSF recomputes priorities from frequency 1 and inflation 0, which
// can reorder the heap but not change its set.
func canonicalState(t testing.TB, blob []byte, st *HierarchyState) []byte {
	t.Helper()
	if st.HOCEviction != "gdsf" {
		return blob
	}
	var c HierarchyState
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	sort.Slice(c.HOC, func(i, j int) bool { return c.HOC[i].ID < c.HOC[j].ID })
	out, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStateRoundTripResidencyOnlyRecords: records that hold residency but no
// count — left by RestoreDC and MergeDC for never-served ids, and by
// ResetCounts for every resident — and records that hold only a mark — left
// by ResetCounts for every id that missed — survive State → RestoreState →
// State byte for byte, and under the policies whose checkpoint is their whole
// state (LRU and FIFO: an order, no hit history) the restored hierarchy
// serves exactly like the original.
func TestStateRoundTripResidencyOnlyRecords(t *testing.T) {
	for _, policy := range []string{"lru", "fifo", "lfu", "s4lru"} {
		cfg := newStateTestConfig()
		cfg.HOCEviction = policy
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
		var residentOnly, markedOnly int
		h.objs.each(func(_ uint64, rec *objRec) {
			switch {
			case rec.count > 0:
			case rec.missed && rec.hoc == noHandle && rec.dc == noHandle:
				markedOnly++
			case !rec.missed && (rec.hoc != noHandle || rec.dc != noHandle):
				residentOnly++
			}
		})
		if residentOnly == 0 || markedOnly == 0 {
			t.Fatalf("%s: %d residency-only and %d mark-only records to round-trip, want some of each", policy, residentOnly, markedOnly)
		}
		checkRecords(t, h, true)

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
		checkRecords(t, restored, true)
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
