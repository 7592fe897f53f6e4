package cache

// ExactTracker counts per-object requests and remembers each object's
// previous request index so the recency knob can be evaluated. Counts and
// last-seen indices live in one table entry, so the per-request Observe is a
// single find-or-insert probe and an in-place update.
type ExactTracker struct {
	objects idTable[exactEntry]
}

type exactEntry struct {
	count    int
	lastSeen int64
}

// NewExactTracker returns an empty exact tracker.
func NewExactTracker() *ExactTracker {
	return &ExactTracker{}
}

// Observe records a request for id arriving as request number idx (0-based,
// monotonically increasing) and returns the total observed count including
// this request, and the object's age: the number of requests since its
// previous request, or -1 if this is the first.
func (t *ExactTracker) Observe(id uint64, idx int64) (int, int64) {
	e, seen := t.objects.upsert(id)
	age := int64(-1)
	if seen {
		age = idx - e.lastSeen
	}
	e.count++
	e.lastSeen = idx
	return e.count, age
}

// Reset clears all state.
func (t *ExactTracker) Reset() {
	t.objects = idTable[exactEntry]{}
}

// Count returns the exact observed count for id.
func (t *ExactTracker) Count(id uint64) int {
	if e := t.objects.get(id); e != nil {
		return e.count
	}
	return 0
}
