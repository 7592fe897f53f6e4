// Package cache implements the two-level CDN cache substrate from the Darwin
// paper (§2.2): a small, fast Hot Object Cache (HOC) in front of a large Disk
// Cache (DC). Admission into the HOC is governed by pluggable experts — the
// (frequency, size[, recency]) threshold tuples Darwin selects among — while
// the DC admits objects on their second request, which each object's record
// answers exactly, to shed one-hit wonders. The DC evicts LRU, the policy
// used throughout the paper's evaluation; the HOC defaults to it, and FIFO,
// LFU, S4LRU and GDSF are its alternatives for the eviction ablations and
// the §7 eviction selector.
package cache

import "fmt"

// Eviction is a byte-capacity-aware victim-selection policy. It keeps only
// its ordering structure (an arena list or a heap) and no index: Insert hands
// back an int32 handle for the admitted object, and every later call names
// the object by that handle. The caller — Hierarchy's per-object record —
// is what maps an id to its handle. A handle is valid from its Insert until
// its Remove, and is never noHandle. A handle's node or heap entry holds the
// object's size and its record's slot in the hierarchy's table, and nothing
// else: the record at that slot holds the id. An eviction clears its
// victim's record through the slot, and reads the victim's id there, with
// no second probe of the table.
type Eviction interface {
	// Insert admits an object that is not resident, whose record is at
	// slot, and returns its handle.
	Insert(size int64, slot uint32) int32
	// Hit records a request for the resident object h (the request loop's
	// only per-hit call into the policy).
	Hit(h int32)
	// Victim returns the next object to evict without removing it.
	// ok is false when the policy tracks no objects.
	Victim() (h int32, ok bool)
	// Remove deletes the resident object h (evicted or invalidated).
	Remove(h int32)
	// Slot returns the record slot h carries.
	Slot(h int32) uint32
	// SetSlot re-points h at its record's new slot, after the records
	// moved (the table grew, or was rebuilt).
	SetSlot(h int32, slot uint32)
	// Size returns the resident size of h.
	Size(h int32) int64
	// Bytes returns the total resident bytes.
	Bytes() int64
	// Entries yields every resident object's record slot and size in
	// eviction order where the policy has one (victim-first for list-based
	// policies; heap-array order for heap-based ones). Used to migrate
	// state when the policy is swapped at runtime, and for the checkpoint's
	// level contents, whose ids the hierarchy reads through the slots.
	Entries(yield func(slot uint32, size int64))
}

// noHandle is the handle of no object: what a record holds for a level the
// object is not resident in.
const noHandle int32 = 0

// listLevel is the arena-backed list LRU, FIFO and S4LRU share: resident
// objects are nodes of an intrusive list (front = most recent), the handle
// is the node index, and steady-state churn is allocation-free.
type listLevel struct {
	arena nodeArena
	list  int32 // sentinel; index 0, so noHandle is never a resident node
	bytes int64
}

func newListLevel() listLevel {
	l := listLevel{arena: newNodeArena(64)}
	l.list = l.arena.newList()
	return l
}

// Insert implements Eviction.
func (l *listLevel) Insert(size int64, slot uint32) int32 {
	i := l.arena.alloc(size, slot)
	l.arena.pushFront(l.list, i)
	l.bytes += size
	return i
}

// Victim implements Eviction: the list's tail.
func (l *listLevel) Victim() (int32, bool) {
	i := l.arena.back(l.list)
	return i, i != nilNode
}

// Remove implements Eviction.
func (l *listLevel) Remove(h int32) {
	l.bytes -= l.arena.nodes[h].size
	l.arena.unlink(h)
	l.arena.release(h)
}

// Size implements Eviction.
func (l *listLevel) Size(h int32) int64 { return l.arena.nodes[h].size }

// Slot implements Eviction.
func (l *listLevel) Slot(h int32) uint32 { return l.arena.nodes[h].slot }

// SetSlot implements Eviction.
func (l *listLevel) SetSlot(h int32, slot uint32) { l.arena.nodes[h].slot = slot }

// Bytes implements Eviction.
func (l *listLevel) Bytes() int64 { return l.bytes }

// Entries implements Eviction (victim-first: tail first).
func (l *listLevel) Entries(yield func(slot uint32, size int64)) {
	l.arena.victimFirst(l.list, yield)
}

// LRU evicts the least recently used object.
type LRU struct{ listLevel }

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{newListLevel()} }

// Hit implements Eviction: the object becomes the most recent.
func (l *LRU) Hit(h int32) { l.arena.moveToFront(l.list, h) }

// FIFO evicts in insertion order, ignoring hits.
type FIFO struct{ listLevel }

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{newListLevel()} }

// Hit implements Eviction; FIFO ignores hits.
func (f *FIFO) Hit(int32) {}

// LFU evicts the least frequently used object, breaking ties by insertion
// order (older first): a min-heap keyed by (hits, insertion sequence).
type LFU struct{ pqueue }

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU { return &LFU{newPQueue()} }

// Insert implements Eviction: a new object starts at zero hits.
func (l *LFU) Insert(size int64, slot uint32) int32 { return l.push(size, slot, 0, 0) }

// Hit implements Eviction.
func (l *LFU) Hit(h int32) {
	l.e[h].key++
	l.fix(h)
}

// pqueue is the pooled min-heap LFU and GDSF share; it implements every
// Eviction method but Insert and Hit. Entries live in one slice and the
// handle is the entry's index (entry 0 is reserved, so noHandle is never
// resident); the heap orders handles by (key, seq), and freed entries are
// reused, so churn does not allocate. up, down, fix and Remove are
// container/heap's algorithms step for step: the heap array's order, which
// Entries exports, depends on the exact sequence of swaps.
type pqueue struct {
	e     []pqEntry
	heap  []int32
	free  []int32
	bytes int64
	seq   uint64
}

type pqEntry struct {
	size int64
	key  float64 // LFU: hits; GDSF: priority H
	freq float64 // GDSF's frequency term
	seq  uint64  // insertion sequence: the tie-break, older first
	pos  int32   // index in heap
	slot uint32  // the object's record slot
}

func newPQueue() pqueue { return pqueue{e: make([]pqEntry, 1, 64)} }

// push admits a new entry and returns its handle.
func (q *pqueue) push(size int64, slot uint32, key, freq float64) int32 {
	q.seq++
	var h int32
	if n := len(q.free); n > 0 {
		h = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.e = append(q.e, pqEntry{})
		h = int32(len(q.e) - 1)
	}
	q.e[h] = pqEntry{size: size, key: key, freq: freq, seq: q.seq, pos: int32(len(q.heap)), slot: slot}
	q.heap = append(q.heap, h)
	q.up(len(q.heap) - 1)
	q.bytes += size
	return h
}

// fix restores heap order after h's key changed.
func (q *pqueue) fix(h int32) {
	if i := int(q.e[h].pos); !q.down(i, len(q.heap)) {
		q.up(i)
	}
}

// Victim implements Eviction: the heap's root.
func (q *pqueue) Victim() (int32, bool) {
	if len(q.heap) == 0 {
		return noHandle, false
	}
	return q.heap[0], true
}

// Remove implements Eviction.
func (q *pqueue) Remove(h int32) {
	i, n := int(q.e[h].pos), len(q.heap)-1
	if n != i {
		q.swap(i, n)
		if !q.down(i, n) {
			q.up(i)
		}
	}
	q.heap = q.heap[:n]
	q.bytes -= q.e[h].size
	q.free = append(q.free, h)
}

// Size implements Eviction.
func (q *pqueue) Size(h int32) int64 { return q.e[h].size }

// Slot implements Eviction.
func (q *pqueue) Slot(h int32) uint32 { return q.e[h].slot }

// SetSlot implements Eviction.
func (q *pqueue) SetSlot(h int32, slot uint32) { q.e[h].slot = slot }

// Bytes implements Eviction.
func (q *pqueue) Bytes() int64 { return q.bytes }

// Entries implements Eviction (heap-array order: deterministic for a given
// history, so policy migrations and checkpoints replay identically).
func (q *pqueue) Entries(yield func(slot uint32, size int64)) {
	for _, h := range q.heap {
		yield(q.e[h].slot, q.e[h].size)
	}
}

func (q *pqueue) less(i, j int) bool {
	a, b := &q.e[q.heap[i]], &q.e[q.heap[j]]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (q *pqueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.e[q.heap[i]].pos = int32(i)
	q.e[q.heap[j]].pos = int32(j)
}

func (q *pqueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

func (q *pqueue) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // right child
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

// NewEvictionWithCapacity constructs a policy by name ("lru", "fifo", "lfu",
// "s4lru", "gdsf"), providing the cache's byte capacity to policies that use
// it (S4LRU segment balancing).
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
