// Package cache implements the two-level CDN cache substrate from the Darwin
// paper (§2.2): a small, fast Hot Object Cache (HOC) in front of a large Disk
// Cache (DC). Admission into the HOC is governed by pluggable experts — the
// (frequency, size[, recency]) threshold tuples Darwin selects among — while
// the DC admits objects on their second request using a Bloom filter to shed
// one-hit wonders. Eviction at both levels defaults to LRU, the policy used
// throughout the paper's evaluation; FIFO and LFU variants are provided for
// ablations.
package cache

import (
	"container/heap"
	"fmt"
)

// Eviction is a byte-capacity-aware victim-selection policy. Implementations
// track resident objects and answer which object should be evicted next.
type Eviction interface {
	// Insert registers a newly admitted object.
	Insert(id uint64, size int64)
	// Touch records a hit on a resident object.
	Touch(id uint64)
	// Hit is the combined Contains+Touch fast path of the request loop: it
	// touches id if resident and reports whether it was resident, with a
	// single index lookup.
	Hit(id uint64) bool
	// Victim returns the next object to evict without removing it.
	// ok is false when the policy tracks no objects.
	Victim() (id uint64, size int64, ok bool)
	// Remove deletes an object (evicted or invalidated) from the policy.
	Remove(id uint64)
	// Contains reports residency.
	Contains(id uint64) bool
	// Size returns the resident size of id, or 0 if absent.
	Size(id uint64) int64
	// Len returns the number of resident objects.
	Len() int
	// Bytes returns the total resident bytes.
	Bytes() int64
	// Entries lists resident objects in eviction order where the policy has
	// one (victim-first for list-based policies; unspecified for heap-based
	// ones). Used to migrate state when the policy is swapped at runtime.
	Entries() []ResidentObject
}

// ResidentObject is one (id, size) pair resident in an eviction policy.
type ResidentObject struct {
	ID   uint64
	Size int64
}

// LRU evicts the least recently used object. Resident objects live in a
// slab-backed intrusive list (see nodeArena), so steady-state churn is
// allocation-free.
type LRU struct {
	arena *nodeArena
	list  int32 // sentinel: front = most recent
	index idTable[int32]
	bytes int64
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU {
	a := newNodeArena(64)
	return &LRU{arena: a, list: a.newList()}
}

// Insert implements Eviction. Inserting an existing id refreshes its recency
// and updates its size.
func (l *LRU) Insert(id uint64, size int64) {
	p, resident := l.index.upsert(id)
	if resident {
		i := *p
		l.bytes += size - l.arena.nodes[i].size
		l.arena.nodes[i].size = size
		l.arena.moveToFront(l.list, i)
		return
	}
	i := l.arena.alloc(id, size)
	l.arena.pushFront(l.list, i)
	*p = i
	l.bytes += size
}

// Touch implements Eviction.
func (l *LRU) Touch(id uint64) { l.Hit(id) }

// Hit implements Eviction.
func (l *LRU) Hit(id uint64) bool {
	p := l.index.get(id)
	if p == nil {
		return false
	}
	l.arena.moveToFront(l.list, *p)
	return true
}

// Victim implements Eviction.
func (l *LRU) Victim() (uint64, int64, bool) {
	i := l.arena.back(l.list)
	if i == nilNode {
		return 0, 0, false
	}
	return l.arena.nodes[i].id, l.arena.nodes[i].size, true
}

// Remove implements Eviction.
func (l *LRU) Remove(id uint64) {
	if i, ok := l.index.delete(id); ok {
		l.bytes -= l.arena.nodes[i].size
		l.arena.unlink(i)
		l.arena.release(i)
	}
}

// Contains implements Eviction.
func (l *LRU) Contains(id uint64) bool { return l.index.get(id) != nil }

// Size implements Eviction.
func (l *LRU) Size(id uint64) int64 {
	if p := l.index.get(id); p != nil {
		return l.arena.nodes[*p].size
	}
	return 0
}

// Len implements Eviction.
func (l *LRU) Len() int { return l.index.len() }

// Bytes implements Eviction.
func (l *LRU) Bytes() int64 { return l.bytes }

// Entries implements Eviction (victim-first: LRU tail first).
func (l *LRU) Entries() []ResidentObject {
	return l.arena.appendVictimFirst(l.list, make([]ResidentObject, 0, l.index.len()))
}

// FIFO evicts in insertion order, ignoring hits.
type FIFO struct {
	arena *nodeArena
	list  int32
	index idTable[int32]
	bytes int64
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO {
	a := newNodeArena(64)
	return &FIFO{arena: a, list: a.newList()}
}

// Insert implements Eviction.
func (f *FIFO) Insert(id uint64, size int64) {
	p, resident := f.index.upsert(id)
	if resident {
		f.bytes += size - f.arena.nodes[*p].size
		f.arena.nodes[*p].size = size
		return
	}
	i := f.arena.alloc(id, size)
	f.arena.pushFront(f.list, i)
	*p = i
	f.bytes += size
}

// Touch implements Eviction; FIFO ignores hits.
func (f *FIFO) Touch(uint64) {}

// Hit implements Eviction; FIFO only reports presence.
func (f *FIFO) Hit(id uint64) bool { return f.index.get(id) != nil }

// Victim implements Eviction.
func (f *FIFO) Victim() (uint64, int64, bool) {
	i := f.arena.back(f.list)
	if i == nilNode {
		return 0, 0, false
	}
	return f.arena.nodes[i].id, f.arena.nodes[i].size, true
}

// Remove implements Eviction.
func (f *FIFO) Remove(id uint64) {
	if i, ok := f.index.delete(id); ok {
		f.bytes -= f.arena.nodes[i].size
		f.arena.unlink(i)
		f.arena.release(i)
	}
}

// Contains implements Eviction.
func (f *FIFO) Contains(id uint64) bool { return f.index.get(id) != nil }

// Size implements Eviction.
func (f *FIFO) Size(id uint64) int64 {
	if p := f.index.get(id); p != nil {
		return f.arena.nodes[*p].size
	}
	return 0
}

// Len implements Eviction.
func (f *FIFO) Len() int { return f.index.len() }

// Bytes implements Eviction.
func (f *FIFO) Bytes() int64 { return f.bytes }

// Entries implements Eviction (victim-first: oldest insert first).
func (f *FIFO) Entries() []ResidentObject {
	return f.arena.appendVictimFirst(f.list, make([]ResidentObject, 0, f.index.len()))
}

// LFU evicts the least frequently used object, breaking ties by insertion
// order (older first). Implemented as a min-heap keyed by (hits, seq);
// removed entries are pooled and reused so churn does not allocate.
type LFU struct {
	h     lfuHeap
	index idTable[*lfuEntry]
	pool  []*lfuEntry
	bytes int64
	seq   uint64
}

type lfuEntry struct {
	id    uint64
	size  int64
	hits  uint64
	seq   uint64
	index int // heap index
}

type lfuHeap []*lfuEntry

func (h lfuHeap) Len() int { return len(h) }
func (h lfuHeap) Less(i, j int) bool {
	if h[i].hits != h[j].hits {
		return h[i].hits < h[j].hits
	}
	return h[i].seq < h[j].seq
}
func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *lfuHeap) Push(x any) {
	e := x.(*lfuEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *lfuHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU {
	return &LFU{}
}

// Insert implements Eviction.
func (l *LFU) Insert(id uint64, size int64) {
	p, resident := l.index.upsert(id)
	if resident {
		e := *p
		l.bytes += size - e.size
		e.size = size
		l.bump(e)
		return
	}
	l.seq++
	var e *lfuEntry
	if n := len(l.pool); n > 0 {
		e = l.pool[n-1]
		l.pool = l.pool[:n-1]
	} else {
		e = new(lfuEntry)
	}
	*e = lfuEntry{id: id, size: size, seq: l.seq}
	*p = e
	heap.Push(&l.h, e)
	l.bytes += size
}

// Touch implements Eviction.
func (l *LFU) Touch(id uint64) { l.Hit(id) }

// Hit implements Eviction.
func (l *LFU) Hit(id uint64) bool {
	p := l.index.get(id)
	if p == nil {
		return false
	}
	l.bump(*p)
	return true
}

// bump records one more request for a resident entry and re-sorts it.
func (l *LFU) bump(e *lfuEntry) {
	e.hits++
	heap.Fix(&l.h, e.index)
}

// Victim implements Eviction.
func (l *LFU) Victim() (uint64, int64, bool) {
	if len(l.h) == 0 {
		return 0, 0, false
	}
	return l.h[0].id, l.h[0].size, true
}

// Remove implements Eviction.
func (l *LFU) Remove(id uint64) {
	if e, ok := l.index.delete(id); ok {
		l.bytes -= e.size
		heap.Remove(&l.h, e.index)
		l.pool = append(l.pool, e)
	}
}

// Contains implements Eviction.
func (l *LFU) Contains(id uint64) bool { return l.index.get(id) != nil }

// Size implements Eviction.
func (l *LFU) Size(id uint64) int64 {
	if p := l.index.get(id); p != nil {
		return (*p).size
	}
	return 0
}

// Len implements Eviction.
func (l *LFU) Len() int { return len(l.h) }

// Bytes implements Eviction.
func (l *LFU) Bytes() int64 { return l.bytes }

// Entries implements Eviction (heap-array order: deterministic for a given
// insertion history, so policy migrations replay identically — map iteration
// here would make SetHOCEviction nondeterministic).
func (l *LFU) Entries() []ResidentObject {
	out := make([]ResidentObject, 0, len(l.h))
	for _, e := range l.h {
		out = append(out, ResidentObject{ID: e.id, Size: e.size})
	}
	return out
}

// NewEviction constructs a policy by name ("lru", "fifo", "lfu", "s4lru",
// "gdsf").
func NewEviction(name string) (Eviction, error) {
	return NewEvictionWithCapacity(name, 0)
}

// NewEvictionWithCapacity constructs a policy by name, providing the cache's
// byte capacity to policies that use it (S4LRU segment balancing).
func NewEvictionWithCapacity(name string, capBytes int64) (Eviction, error) {
	switch name {
	case "lru", "":
		return NewLRU(), nil
	case "fifo":
		return NewFIFO(), nil
	case "lfu":
		return NewLFU(), nil
	case "s4lru":
		return NewS4LRU(capBytes), nil
	case "gdsf":
		return NewGDSF(), nil
	}
	return nil, fmt.Errorf("cache: unknown eviction policy %q", name)
}
