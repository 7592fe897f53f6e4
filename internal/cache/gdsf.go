package cache

import "container/heap"

// GDSF is the Greedy-Dual-Size-Frequency eviction policy (Cherkasova,
// HPL-98-69), widely used by CDN disk caches: each object carries priority
// H = L + frequency · cost / size (cost = 1 here), where L is the inflation
// value — the priority of the last evicted object. Small, frequently
// requested objects are retained; large cold objects go first. Provided as
// a further eviction ablation beyond the paper's LRU default.
type GDSF struct {
	h     gdsfHeap
	index idTable[*gdsfEntry]
	pool  []*gdsfEntry
	bytes int64
	l     float64 // inflation
	seq   uint64
}

type gdsfEntry struct {
	id    uint64
	size  int64
	freq  float64
	prio  float64
	seq   uint64
	index int
}

type gdsfHeap []*gdsfEntry

func (h gdsfHeap) Len() int { return len(h) }
func (h gdsfHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h gdsfHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *gdsfHeap) Push(x any) {
	e := x.(*gdsfEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *gdsfHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewGDSF returns an empty GDSF policy.
func NewGDSF() *GDSF {
	return &GDSF{}
}

func (g *GDSF) priority(freq float64, size int64) float64 {
	if size < 1 {
		size = 1
	}
	return g.l + freq/float64(size)
}

// Insert implements Eviction.
func (g *GDSF) Insert(id uint64, size int64) {
	p, resident := g.index.upsert(id)
	if resident {
		g.bytes += size - (*p).size
		(*p).size = size
		g.bump(*p)
		return
	}
	g.seq++
	var e *gdsfEntry
	if n := len(g.pool); n > 0 {
		e = g.pool[n-1]
		g.pool = g.pool[:n-1]
	} else {
		e = new(gdsfEntry)
	}
	*e = gdsfEntry{id: id, size: size, freq: 1, seq: g.seq}
	e.prio = g.priority(e.freq, size)
	*p = e
	heap.Push(&g.h, e)
	g.bytes += size
}

// Touch implements Eviction.
func (g *GDSF) Touch(id uint64) { g.Hit(id) }

// Hit implements Eviction.
func (g *GDSF) Hit(id uint64) bool {
	p := g.index.get(id)
	if p == nil {
		return false
	}
	g.bump(*p)
	return true
}

// bump records one more request for a resident entry and re-sorts it.
func (g *GDSF) bump(e *gdsfEntry) {
	e.freq++
	e.prio = g.priority(e.freq, e.size)
	heap.Fix(&g.h, e.index)
}

// Victim implements Eviction.
func (g *GDSF) Victim() (uint64, int64, bool) {
	if len(g.h) == 0 {
		return 0, 0, false
	}
	return g.h[0].id, g.h[0].size, true
}

// Remove implements Eviction; evicting the current minimum advances the
// inflation value L (the greedy-dual aging mechanism).
func (g *GDSF) Remove(id uint64) {
	e, ok := g.index.delete(id)
	if !ok {
		return
	}
	if len(g.h) > 0 && g.h[0] == e {
		g.l = e.prio
	}
	g.bytes -= e.size
	heap.Remove(&g.h, e.index)
	g.pool = append(g.pool, e)
}

// Contains implements Eviction.
func (g *GDSF) Contains(id uint64) bool { return g.index.get(id) != nil }

// Size implements Eviction.
func (g *GDSF) Size(id uint64) int64 {
	if p := g.index.get(id); p != nil {
		return (*p).size
	}
	return 0
}

// Len implements Eviction.
func (g *GDSF) Len() int { return g.index.len() }

// Bytes implements Eviction.
func (g *GDSF) Bytes() int64 { return g.bytes }

// Entries implements Eviction (heap-array order: deterministic for a given
// insertion history, so policy migrations replay identically — map iteration
// here would make SetHOCEviction nondeterministic).
func (g *GDSF) Entries() []ResidentObject {
	out := make([]ResidentObject, 0, len(g.h))
	for _, e := range g.h {
		out = append(out, ResidentObject{ID: e.id, Size: e.size})
	}
	return out
}
