package cache

// ExactTracker counts per-object requests and remembers each object's
// previous request index so the recency knob can be evaluated. Counts and
// last-seen indices live in one map so the per-request Observe costs a single
// lookup plus a single store.
type ExactTracker struct {
	objects map[uint64]exactEntry
}

type exactEntry struct {
	count    int
	lastSeen int64
}

// NewExactTracker returns an empty exact tracker.
func NewExactTracker() *ExactTracker {
	return &ExactTracker{objects: make(map[uint64]exactEntry)}
}

// Observe records a request for id arriving as request number idx (0-based,
// monotonically increasing) and returns the total observed count including
// this request, and the object's age: the number of requests since its
// previous request, or -1 if this is the first.
func (t *ExactTracker) Observe(id uint64, idx int64) (int, int64) {
	e, ok := t.objects[id]
	age := int64(-1)
	if ok {
		age = idx - e.lastSeen
	}
	e.count++
	e.lastSeen = idx
	t.objects[id] = e
	return e.count, age
}

// Reset clears all state.
func (t *ExactTracker) Reset() {
	t.objects = make(map[uint64]exactEntry)
}

// Count returns the exact observed count for id.
func (t *ExactTracker) Count(id uint64) int { return t.objects[id].count }
