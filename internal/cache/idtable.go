package cache

import (
	"math/bits"
	"math/rand/v2"
)

// idTable is the package's one per-object index: an open-addressing hash
// table of Hierarchy's per-object records keyed by object id, with linear
// probing and a power-of-two slot count, so a request's frequency, recency
// and residency are one probe; the built-in map it replaced cost half of a
// request in hashing, bucket walks and separate lookup + assign. A slot is
// the record itself (objRec: key, occupancy and a flag share what would
// otherwise be a separate slot's padding, so a slot is 40 bytes). Entries
// are never removed one at a time (a table is replaced whole, as
// ResetCounts and restore do), so there are no tombstones and a probe stops
// at the first empty slot.
//
// The home slot is the high bits of Mix64(id ^ idSeed). High, because
// Sharded.route has already consumed the low bits of Mix64(id) to pick the
// shard. Seeded, because ids come straight off the request URL: with a fixed
// public hash a client can compute ids that all share one home slot, and
// linear probing turns N of them into N² slot visits under the shard lock
// (the built-in map this replaces was seeded for the same reason). A full
// mixer with fixed, vetted multipliers rather than a secret multiplier,
// because a drawn multiplier can be a weak one — a small one sends every
// sequential id to the same slot — and the seed only has to be unknown, not
// good. The mixer costs about 8 % of the engine's throughput over a bare
// golden-ratio multiply.
//
// The zero value is an empty table. Pointers and slot indexes returned by
// get and upsert are into the slot array: valid until the next grow, which
// an upsert into a full table runs first (get never moves an entry).
// Callers write a record's fields, never a whole objRec: key and used
// belong to the table.
type idTable struct {
	slots []objRec
	n     int
	shift uint // 64 − log2(len(slots)): home = hash >> shift
}

// idMinSlots is the first allocation; a table never shrinks.
const idMinSlots = 8

// idSeed keys every table's hash for the life of the process. Slot order
// therefore differs from run to run; nothing may depend on it (each's callers
// sort by id before they export anything).
var idSeed = newIDSeed()

func newIDSeed() uint64 {
	//lint:ignore determinism the seed must be unpredictable to clients; it moves slot order only, which no decision or exported state reads
	return rand.Uint64()
}

// home returns id's preferred slot.
func (t *idTable) home(id uint64) uint64 { return Mix64(id^idSeed) >> t.shift }

// len returns the number of entries.
func (t *idTable) len() int { return t.n }

// find returns id's slot index and true when id is present, or the empty
// slot where its probe stops and false when it is absent. The table must
// have slots.
func (t *idTable) find(id uint64) (i uint64, ok bool) {
	mask := uint64(len(t.slots) - 1)
	for i = t.home(id); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return i, false
		}
		if s.key == id {
			return i, true
		}
	}
}

// get returns a pointer to id's record, or nil when id is absent.
func (t *idTable) get(id uint64) *objRec {
	if t.n == 0 {
		return nil
	}
	if i, ok := t.find(id); ok {
		return &t.slots[i]
	}
	return nil
}

// upsert finds id or inserts a zero record for it, in one probe, and returns
// the record, its slot index, and whether it was already present. The table
// doubles before it would pass 3/4 full, so a probe always meets an empty
// slot.
func (t *idTable) upsert(id uint64) (rec *objRec, slot uint32, existed bool) {
	if t.full() {
		t.grow()
	}
	i, existed := t.find(id)
	s := &t.slots[i]
	if !existed {
		s.key, s.used = id, true
		t.n++
	}
	return s, uint32(i), existed
}

// full reports whether an insert must grow the table first: the next entry
// would pass 3/4 load.
func (t *idTable) full() bool { return t.n >= len(t.slots)/4*3 }

// grow doubles the slot array and re-places every entry.
func (t *idTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < idMinSlots {
		size = idMinSlots
	}
	t.slots = make([]objRec, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for k := range old {
		if !old[k].used {
			continue
		}
		i := t.home(old[k].key)
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = old[k]
	}
}

// each calls f for every entry, in slot order — which depends on idSeed, so
// callers that export state sort by id.
func (t *idTable) each(f func(id uint64, rec *objRec)) {
	for i := range t.slots {
		if t.slots[i].used {
			f(t.slots[i].key, &t.slots[i])
		}
	}
}
