package cache

// GDSF is the Greedy-Dual-Size-Frequency eviction policy (Cherkasova,
// HPL-98-69), widely used by CDN disk caches: each object carries priority
// H = L + frequency · cost / size (cost = 1 here), where L is the inflation
// value — the priority of the last evicted object. Small, frequently
// requested objects are retained; large cold objects go first. Provided as
// a further eviction ablation beyond the paper's LRU default.
type GDSF struct {
	pqueue
	l float64 // inflation
}

// NewGDSF returns an empty GDSF policy.
func NewGDSF() *GDSF {
	return &GDSF{pqueue: newPQueue()}
}

func (g *GDSF) priority(freq float64, size int64) float64 {
	if size < 1 {
		size = 1
	}
	return g.l + freq/float64(size)
}

// Insert implements Eviction.
func (g *GDSF) Insert(id uint64, size int64) int32 {
	return g.push(id, size, g.priority(1, size), 1)
}

// Hit implements Eviction.
func (g *GDSF) Hit(h int32) {
	e := &g.e[h]
	e.freq++
	e.key = g.priority(e.freq, e.size)
	g.fix(h)
}

// Remove implements Eviction; evicting the current minimum advances the
// inflation value L (the greedy-dual aging mechanism).
func (g *GDSF) Remove(h int32) {
	if g.heap[0] == h {
		g.l = g.e[h].key
	}
	g.pqueue.Remove(h)
}
