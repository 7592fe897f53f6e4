package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func policies() map[string]func() Eviction {
	return map[string]func() Eviction{
		"lru":   func() Eviction { return NewLRU() },
		"fifo":  func() Eviction { return NewFIFO() },
		"lfu":   func() Eviction { return NewLFU() },
		"s4lru": func() Eviction { return NewS4LRU(1000) },
		"gdsf":  func() Eviction { return NewGDSF() },
	}
}

// byID drives an Eviction by object id for the tests, keeping the
// id → handle map that Hierarchy's records keep in the engine. Object id's
// record slot is slotOf(id), and a handle's id is read back through the slot
// it carries (idAt), as the engine reads it through the record.
type byID struct {
	Eviction
	h map[uint64]int32
}

func drive(p Eviction) *byID { return &byID{p, map[uint64]int32{}} }

// insert admits id; a resident id is removed first, so the policy sees a
// fresh admission at the new size. Its record slot is slotOf(id).
func (b *byID) insert(id uint64, size int64) {
	b.remove(id)
	b.h[id] = b.Insert(size, slotOf(id))
}

// slotOf is the record slot the tests give id: distinct per id, and unlike
// it, so a slot mixed up with an id would show.
func slotOf(id uint64) uint32 { return uint32(id*3 + 1) }

// idAt is slotOf's inverse: the id whose record is at slot.
func idAt(slot uint32) uint64 { return uint64(slot-1) / 3 }

// levelLen counts the objects level's Entries yields.
func levelLen(level Eviction) int {
	n := 0
	level.Entries(func(uint32, int64) { n++ })
	return n
}

func (b *byID) len() int { return levelLen(b.Eviction) }

// touch is a request for id: a Hit when resident, nothing otherwise.
func (b *byID) touch(id uint64) {
	if h, ok := b.h[id]; ok {
		b.Hit(h)
	}
}

func (b *byID) remove(id uint64) {
	if h, ok := b.h[id]; ok {
		b.Remove(h)
		delete(b.h, id)
	}
}

func (b *byID) contains(id uint64) bool { _, ok := b.h[id]; return ok }

func (b *byID) size(id uint64) int64 {
	if h, ok := b.h[id]; ok {
		return b.Size(h)
	}
	return 0
}

func (b *byID) victim() (uint64, bool) {
	h, ok := b.Victim()
	if !ok {
		return 0, false
	}
	return idAt(b.Slot(h)), true
}

// consistent checks the handle contract against the id map: every handle
// carries its id's slot, no handle is noHandle, Bytes agrees, and Entries
// yields exactly the resident objects' slots and sizes.
func (b *byID) consistent() error {
	var bytes int64
	for id, h := range b.h {
		if h == noHandle || b.Slot(h) != slotOf(id) {
			return fmt.Errorf("id %d: handle %d carries slot %d, want %d", id, h, b.Slot(h), slotOf(id))
		}
		bytes += b.Size(h)
	}
	if b.Bytes() != bytes {
		return fmt.Errorf("Bytes %d, want %d", b.Bytes(), bytes)
	}
	var err error
	seen := map[uint64]bool{}
	b.Entries(func(slot uint32, size int64) {
		id := idAt(slot)
		if err == nil && (slot != slotOf(id) || !b.contains(id) || seen[id] || b.size(id) != size) {
			err = fmt.Errorf("Entries yields slot %d size %d", slot, size)
		}
		seen[id] = true
	})
	if err != nil {
		return err
	}
	if len(seen) != len(b.h) {
		return fmt.Errorf("Entries lists %d objects, %d resident", len(seen), len(b.h))
	}
	return nil
}

func TestEvictionCommonBehaviour(t *testing.T) {
	for name, mk := range policies() {
		t.Run(name, func(t *testing.T) {
			p := drive(mk())
			if _, ok := p.Victim(); ok {
				t.Fatal("empty policy has a victim")
			}
			p.insert(1, 100)
			p.insert(2, 200)
			if p.len() != 2 || p.Bytes() != 300 {
				t.Fatalf("len=%d Bytes=%d", p.len(), p.Bytes())
			}
			for id, h := range p.h {
				if h == noHandle || p.Slot(h) != slotOf(id) {
					t.Fatalf("handle %d of id %d carries slot %d", h, id, p.Slot(h))
				}
			}
			if p.size(2) != 200 {
				t.Fatal("Size wrong")
			}
			p.remove(1)
			if p.len() != 1 || p.Bytes() != 200 {
				t.Fatal("Remove wrong")
			}
			if err := p.consistent(); err != nil {
				t.Fatal(err)
			}
			p.remove(2)
			if _, ok := p.Victim(); ok || p.len() != 0 || p.Bytes() != 0 {
				t.Fatal("policy not empty after removing everything")
			}
		})
	}
}

// TestEvictionReinsertUpdatesSize: an object evicted and admitted again is a
// fresh entry at its new size and slot, and SetSlot re-points it.
func TestEvictionReinsertUpdatesSize(t *testing.T) {
	for name, mk := range policies() {
		t.Run(name, func(t *testing.T) {
			p := drive(mk())
			p.Remove(p.Insert(100, 3))
			h := p.Insert(150, 9)
			if p.len() != 1 || p.Bytes() != 150 || p.Size(h) != 150 || p.Slot(h) != 9 {
				t.Fatalf("len=%d Bytes=%d Size=%d Slot=%d after reinsert", p.len(), p.Bytes(), p.Size(h), p.Slot(h))
			}
			if p.SetSlot(h, 4); p.Slot(h) != 4 || p.Size(h) != 150 {
				t.Fatalf("after SetSlot(4): Slot=%d Size=%d", p.Slot(h), p.Size(h))
			}
		})
	}
}

func TestLRUOrder(t *testing.T) {
	p := drive(NewLRU())
	p.insert(1, 1)
	p.insert(2, 1)
	p.insert(3, 1)
	if id, _ := p.victim(); id != 1 {
		t.Fatalf("victim = %d, want 1", id)
	}
	p.touch(1) // 2 now oldest
	if id, _ := p.victim(); id != 2 {
		t.Fatalf("victim after touch = %d, want 2", id)
	}
}

func TestFIFOIgnoresTouch(t *testing.T) {
	p := drive(NewFIFO())
	p.insert(1, 1)
	p.insert(2, 1)
	p.touch(1)
	if id, _ := p.victim(); id != 1 {
		t.Fatalf("victim = %d, want 1 (FIFO ignores hits)", id)
	}
}

func TestLFUOrder(t *testing.T) {
	p := drive(NewLFU())
	p.insert(1, 1)
	p.insert(2, 1)
	p.insert(3, 1)
	p.touch(1)
	p.touch(1)
	p.touch(2)
	// hits: 1→2, 2→1, 3→0
	if id, _ := p.victim(); id != 3 {
		t.Fatalf("victim = %d, want 3", id)
	}
	p.remove(3)
	if id, _ := p.victim(); id != 2 {
		t.Fatalf("victim = %d, want 2", id)
	}
}

func TestLFUTieBreaksByAge(t *testing.T) {
	p := drive(NewLFU())
	p.insert(5, 1)
	p.insert(6, 1)
	if id, _ := p.victim(); id != 5 {
		t.Fatalf("victim = %d, want older insert 5", id)
	}
}

// TestEvictionBytesInvariant: Bytes always equals the sum of resident sizes,
// and every handle keeps naming its object through any churn.
func TestEvictionBytesInvariant(t *testing.T) {
	type op struct {
		Kind uint8
		ID   uint8
		Size uint16
	}
	for name, mk := range policies() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []op) bool {
				p := drive(mk())
				for _, o := range ops {
					id := uint64(o.ID % 16)
					switch o.Kind % 3 {
					case 0:
						p.insert(id, int64(o.Size%1000)+1)
					case 1:
						p.touch(id)
					case 2:
						p.remove(id)
					}
					if err := p.consistent(); err != nil {
						t.Log(err)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLFUHeapStress(t *testing.T) {
	p := drive(NewLFU())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		id := uint64(rng.Intn(100))
		switch rng.Intn(4) {
		case 0:
			p.insert(id, int64(rng.Intn(100)+1))
		case 1:
			p.touch(id)
		case 2:
			p.remove(id)
		case 3:
			if vid, ok := p.victim(); ok && !p.contains(vid) {
				t.Fatalf("victim %d is not live", vid)
			}
		}
	}
	if err := p.consistent(); err != nil {
		t.Fatal(err)
	}
}

func TestNewEviction(t *testing.T) {
	for _, name := range []string{"", "lru", "fifo", "lfu"} {
		if _, err := NewEvictionWithCapacity(name, 0); err != nil {
			t.Errorf("NewEvictionWithCapacity(%q): %v", name, err)
		}
	}
	if _, err := NewEvictionWithCapacity("belady", 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
