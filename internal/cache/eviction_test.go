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
// id → handle map that Hierarchy's records keep in the engine.
type byID struct {
	Eviction
	h map[uint64]int32
}

func drive(p Eviction) *byID { return &byID{p, map[uint64]int32{}} }

// insert admits id; a resident id is removed first, so the policy sees a
// fresh admission at the new size.
func (b *byID) insert(id uint64, size int64) {
	b.remove(id)
	b.h[id] = b.Insert(id, size)
}

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
	return b.ID(h), true
}

// consistent checks the handle contract against the id map: every handle
// names its id, no handle is noHandle, Len and Bytes agree, and Entries
// lists exactly the resident ids.
func (b *byID) consistent() error {
	var bytes int64
	for id, h := range b.h {
		if h == noHandle || b.ID(h) != id {
			return fmt.Errorf("id %d: handle %d names id %d", id, h, b.ID(h))
		}
		bytes += b.Size(h)
	}
	if b.Len() != len(b.h) || b.Bytes() != bytes {
		return fmt.Errorf("Len %d Bytes %d, want %d %d", b.Len(), b.Bytes(), len(b.h), bytes)
	}
	entries := b.Entries()
	seen := map[uint64]bool{}
	for _, e := range entries {
		if !b.contains(e.ID) || seen[e.ID] || b.size(e.ID) != e.Size {
			return fmt.Errorf("Entries lists %+v", e)
		}
		seen[e.ID] = true
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
			if p.Len() != 2 || p.Bytes() != 300 {
				t.Fatalf("Len=%d Bytes=%d", p.Len(), p.Bytes())
			}
			for id, h := range p.h {
				if h == noHandle || p.ID(h) != id {
					t.Fatalf("handle %d of id %d names id %d", h, id, p.ID(h))
				}
			}
			if p.size(2) != 200 {
				t.Fatal("Size wrong")
			}
			p.remove(1)
			if p.Len() != 1 || p.Bytes() != 200 {
				t.Fatal("Remove wrong")
			}
			if err := p.consistent(); err != nil {
				t.Fatal(err)
			}
			p.remove(2)
			if _, ok := p.Victim(); ok || p.Len() != 0 || p.Bytes() != 0 {
				t.Fatal("policy not empty after removing everything")
			}
		})
	}
}

// TestEvictionReinsertUpdatesSize: an object evicted and admitted again is a
// fresh entry at its new size, and its handle names it.
func TestEvictionReinsertUpdatesSize(t *testing.T) {
	for name, mk := range policies() {
		t.Run(name, func(t *testing.T) {
			p := mk()
			p.Remove(p.Insert(1, 100))
			h := p.Insert(1, 150)
			if p.Len() != 1 || p.Bytes() != 150 || p.Size(h) != 150 || p.ID(h) != 1 {
				t.Fatalf("Len=%d Bytes=%d Size=%d ID=%d after reinsert", p.Len(), p.Bytes(), p.Size(h), p.ID(h))
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
		if _, err := NewEviction(name); err != nil {
			t.Errorf("NewEviction(%q): %v", name, err)
		}
	}
	if _, err := NewEviction("belady"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
